package main

import (
	"fmt"
	"math"

	"tsue/internal/device"
	"tsue/internal/obs"
)

// The service-level objective of the open loop: a rate is sustained when
// update p99 stays within sloP99, goodput reaches sloGoodput of what the
// schedule offered, and no op was lost.
const (
	sloP99us   = 5000
	sloGoodput = 0.95
)

// derived is the sim-clock metric set computed from one record.
type derived struct {
	val     map[string]float64
	samples map[string]int // how many samples back each percentile
	lowN    []string       // percentiles with fewer than minTail samples beyond them
}

// derive computes every sim-clock metric of a workload from a record. It is
// the one definition of those metrics: applied to one iteration's record for
// the determinism checks, and to the pooled record for the reported values.
func derive(workload string, a *agg) derived {
	d := derived{val: map[string]float64{}, samples: map[string]int{}}
	ratio := func(num, den string) float64 {
		if a.sum[den] == 0 {
			return 0
		}
		return a.sum[num] / a.sum[den]
	}
	mean := func(set string) float64 {
		var sum float64
		for _, v := range a.lat[set] {
			sum += us(v)
		}
		if len(a.lat[set]) == 0 {
			return 0
		}
		return sum / float64(len(a.lat[set]))
	}
	pct := func(name, set string, q float64) {
		dist := newLatDist(a.lat[set])
		v, ok := dist.p(q)
		d.val[name] = us(v)
		d.samples[name] = len(dist)
		if !ok {
			d.lowN = append(d.lowN, name)
		}
	}

	// End to end. README.md has the table of what each name reads on each
	// workload, stand-ins included.
	switch workload {
	case "ali_tsue", "ten_plr":
		d.val["sim_iops"] = ratio("ops", "replay_s")
		pct("sim_update_p50_us", "update", 0.50)
		pct("sim_update_p99_us", "update", 0.99)
		pct("sim_read_p99_us", "read", 0.99)
		d.val["sim_slo_rate"] = d.val["sim_iops"] // a closed loop offers what it completes
		d.val["sim_recovery_mbps"] = ratio("user_bytes", "replay_s") / 1e6
		d.val["sim_fg_iops_in_recovery"] = ratio("updates", "replay_s")
		d.val["sim_degraded_read_p95_us"] = mean("read")
	case "open_tsue":
		// The rate at which update p99 reaches the limit: the highest listed
		// rate that meets the objective, moved towards the next one by where
		// the limit falls between their two p99 values (log scale), so that
		// a p99 hovering at the limit moves the value a little, not a step.
		var prevP99 float64
		d.val["sim_slo_rate"] = 0 // when not even the lowest rate meets the objective
		for i, rate := range openRates {
			at := fmt.Sprintf("@%d", rate)
			p99d, _ := newLatDist(a.lat["update"+at]).p(0.99)
			p99 := us(p99d)
			goodput, offered := ratio("ops"+at, "span_s"+at), ratio("arrivals"+at, "sched_s"+at)
			if p99 <= sloP99us && goodput >= sloGoodput*offered && a.sum["lost"+at] == 0 {
				d.val["sim_slo_rate"], prevP99 = float64(rate), p99
				continue
			}
			if i > 0 && p99 > sloP99us && prevP99 > 0 {
				f := math.Log(sloP99us/prevP99) / math.Log(p99/prevP99)
				d.val["sim_slo_rate"] += f * float64(rate-openRates[i-1])
			}
			break
		}
		lat, top := fmt.Sprintf("@%d", openLatencyRate), fmt.Sprintf("@%d", openTopRate)
		d.val["sim_iops"] = ratio("ops"+top, "span_s"+top)
		pct("sim_update_p50_us", "update"+lat, 0.50)
		pct("sim_update_p99_us", "update"+lat, 0.99)
		pct("sim_read_p99_us", "read", 0.99)
		d.val["sim_recovery_mbps"] = ratio("user_bytes", "measured_s") / 1e6
		d.val["sim_fg_iops_in_recovery"] = ratio("updates"+top, "span_s"+top)
		d.val["sim_degraded_read_p95_us"] = mean("read")
	case "recover_tsue":
		d.val["sim_iops"] = ratio("ops", "replay_s")
		pct("sim_update_p50_us", "update", 0.50)
		pct("sim_update_p99_us", "update", 0.99)
		pct("sim_read_p99_us", "read", 0.99)
		d.val["sim_slo_rate"] = d.val["sim_iops"]
		d.val["sim_recovery_mbps"] = ratio("rebuilt_bytes", "recover_s") / 1e6
		d.val["sim_fg_iops_in_recovery"] = ratio("window_updates", "rec_window_s")
		pct("sim_degraded_read_p95_us", "degraded_read", 0.95)
	}
	d.val["sim_dev_write_amp"] = ratio("dev.nand_write_bytes", "user_bytes")
	d.val["sim_peak_log_mb"] = ratio("peak_log_bytes", "clusters") / (1 << 20)

	// Per layer, from the layers' own counters.
	d.val["sim.events_per_op"] = ratio("events", "ops")
	d.val["netsim.bytes_per_user_byte"] = ratio("net.bytes", "user_bytes")
	d.val["netsim.msgs_per_op"] = ratio("net.msgs", "ops")
	d.val["netsim.tx_util_pct"] = 100 * ratio("nic_busy_s", "nic_window_s")
	slots := float64(device.SSDParams().Parallelism * shapeOSDs)
	d.val["device.busy_frac"] = ratio("dev.busy_s", "measured_s") / slots
	d.val["device.rand_write_ops_per_op"] = ratio("dev.rand_write_ops", "ops")
	d.val["device.seq_write_ops_per_op"] = ratio("dev.seq_write_ops", "ops")
	d.val["device.read_bytes_per_user_byte"] = ratio("dev.read_bytes", "user_bytes")
	d.val["device.nand_write_amp"] = ratio("dev.nand_write_bytes", "dev.host_write_bytes")
	d.val["device.erases"] = ratio("dev.erases", "clusters")
	for _, layer := range []string{"data", "delta", "parity"} {
		res := "res." + layer
		d.val["update.tsue."+layer+"_append_us"] = 1e6 * ratio(res+".append_s", res+".append_n")
		d.val["update.tsue."+layer+"_buffer_ms"] = 1e3 * ratio(res+".buffer_s", res+".buffer_n")
		d.val["update.tsue."+layer+"_recycle_us"] = 1e6 * ratio(res+".recycle_s", res+".recycle_n")
	}
	d.val["cluster.drain_sim_ms"] = 1e3 * ratio("drain_sim_s", "clusters")
	d.val["cluster.admission_rejected_per_op"] = ratio("rejected", "ops")
	d.val["cluster.open_gen_lag_max_us"] = a.max["gen_lag_us"]

	// The program's own trace; only the traced pass fills these.
	if a.sum["obs.updates"] > 0 {
		var staged float64
		for st := obs.Stage(0); st < obs.NStages; st++ {
			key := "obs.stage_" + st.String()
			d.val[key+"_us"] = 1e6 * ratio(key+"_s", "obs.updates")
			staged += a.sum[key+"_s"]
		}
		d.val["obs.stage_sum_ratio"] = staged / a.sum["obs.e2e_s"]
		d.val["obs.spans_per_op"] = ratio("obs.spans", "ops")
	}
	return d
}
