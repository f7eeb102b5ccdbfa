package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"tsue/internal/trace"
)

// This file declares what the benchmark measures: the workloads and every
// metric by name, with its unit, clock, direction and — for end-to-end
// metrics — the bound by which it may worsen before a change counts as a
// regression. BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds; smoke_test.go fails when the two disagree.

const (
	simClock  = "sim"  // the modelled cluster; repeats exactly for a seed
	hostClock = "host" // the simulator itself, on the machine that runs it
)

type workloadDef struct {
	name string
	why  string
	run  func(it *iter) error
}

var workloads = []workloadDef{
	{"ali_tsue", "closed loop, 16 clients, Ali-Cloud mix on TSUE: the paper's headline case; work lands in logpool, the recyclers and rs.FoldDeltas",
		func(it *iter) error {
			return runClosed(it, closedSpec{engine: "tsue", profile: trace.AliCloud, fileMB: 96, ops: 3840})
		}},
	{"ten_plr", "closed loop, 16 clients, Ten-Cloud mix on PLR: in-place RMW and reserved-space parity log; bypasses logpool, leans on blockstore, device and FTL",
		func(it *iter) error {
			return runClosed(it, closedSpec{engine: "plr", profile: trace.TenCloud, fileMB: 96, ops: 2400})
		}},
	{"open_tsue", "open loop, Poisson arrivals at 4k-14k ops/s with Zipf(1.1) offsets and MDS admission: one proc per op, hot-slot merging, latency from the scheduled arrival",
		runOpen},
	{"recover_tsue", "kill the fullest OSD under 16 updaters and 4 reader probes, rebuild it interleaved: whole-block reconstruct, bulk transfers, degraded journal and replay",
		runRecover},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median
	clock  string
	// moves names, for a per-layer metric, the end-to-end metric and workload
	// it should move; for an end-to-end metric, what it reads.
	moves string
}

var endToEnd = []metricDef{
	{"sim_iops", "1/s", "higher", 0.15, simClock, "client ops per sim second of the replay (open_tsue: goodput at 14000 ops/s offered)"},
	{"sim_update_p50_us", "us", "lower", 0.12, simClock, "update latency, issue to ack (open_tsue: at 8000 ops/s, from the scheduled arrival; recover_tsue: the whole run, failure and recovery included)"},
	{"sim_update_p99_us", "us", "lower", 0.20, simClock, "as sim_update_p50_us, 99th percentile"},
	{"sim_read_p99_us", "us", "lower", 0.25, simClock, "read latency (open_tsue: rates up to 10000 ops/s; recover_tsue: every probe read of the run)"},
	{"sim_slo_rate", "1/s", "higher", 0.25, simClock, "open_tsue: offered rate at which update p99 reaches 5 ms, read between the highest listed rate that meets the objective (p99 <= 5 ms, goodput >= 0.95 x offered, nothing lost) and the next; elsewhere sim_iops"},
	{"sim_recovery_mbps", "MB/s", "higher", 0.15, simClock, "recover_tsue: rebuilt bytes per sim second from failure to healthy; elsewhere user bytes updated per sim second"},
	{"sim_fg_iops_in_recovery", "1/s", "higher", 0.20, simClock, "recover_tsue: foreground updates per sim second inside the recovery window; elsewhere updates per sim second"},
	{"sim_degraded_read_p95_us", "us", "lower", 0.12, simClock, "recover_tsue: probe reads issued inside the recovery window; elsewhere mean read latency (healthy reads are too quantised for a percentile to vary)"},
	{"sim_dev_write_amp", "x", "lower", 0.10, simClock, "NAND bytes programmed per user byte updated, after DrainAll"},
	{"sim_peak_log_mb", "MB", "lower", 0.25, simClock, "high-water mark of the engines' log memory, summed over OSDs"},
	{"host_ops_per_s", "1/s", "higher", 0.25, hostClock, "completed client ops per host second of the timed phase (replay + DrainAll + Recover)"},
	{"host_alloc_bytes_per_op", "B", "lower", 0.15, hostClock, "bytes allocated in the timed phase per client op"},
	{"setup_s", "s", "lower", 0.25, hostClock, "host seconds of cluster.New + Create + WriteFile preload + ResetStats"},
}

// perLayer lists every per-layer metric. A layer is a package of the program;
// the prefix of the name is the package.
var perLayer = func() []metricDef {
	host := func(name, unit, better, moves string) metricDef {
		return metricDef{name: name, unit: unit, better: better, clock: hostClock, moves: moves}
	}
	sim := func(name, unit, better, moves string) metricDef {
		return metricDef{name: name, unit: unit, better: better, clock: simClock, moves: moves}
	}
	const (
		everywhere = "host_ops_per_s on every workload"
		recoverHot = "host_ops_per_s on recover_tsue"
		rangeOps   = "host_ops_per_s and host_alloc_bytes_per_op on ten_plr (most) and ali_tsue"
		wholeBlock = "host_ops_per_s on recover_tsue, setup_s everywhere"
		control    = "nothing: a control"
	)
	out := []metricDef{
		host("gf256.mulxor_64k_mbps", "MB/s", "higher", recoverHot+"; under 4% of the profile elsewhere"),
		host("gf256.mul_64k_mbps", "MB/s", "higher", recoverHot),
		host("gf256.xor_64k_mbps", "MB/s", "higher", recoverHot),

		host("rs.encode_6_4_1m_mbps", "MB/s", "higher", "setup_s everywhere"),
		host("rs.reconstruct_6_4_1m_mbps", "MB/s", "higher", recoverHot),
		host("rs.data_delta_4k_ns", "ns", "lower", "host_ops_per_s on ten_plr"),
		host("rs.parity_delta_4k_ns", "ns", "lower", "host_ops_per_s on ten_plr"),
		host("rs.merge_data_deltas_4x4k_ns", "ns", "lower", "host_ops_per_s on ten_plr"),
		host("rs.fold_deltas_64x4k_ns", "ns", "lower", "host_ops_per_s on ali_tsue"),
		host("rs.fold_deltas_64x4k_bytes", "B", "lower", "host_alloc_bytes_per_op on ali_tsue"),

		host("wire.checksum_4k_ns", "ns", "lower", everywhere),
		host("wire.checksum_1m_ns", "ns", "lower", everywhere+" (whole-block CRC is half of host CPU)"),

		host("sim.proc_switch_ns", "ns", "lower", everywhere+", most on open_tsue"),
		host("sim.sleep_ns", "ns", "lower", everywhere),
		host("sim.spawn_ns", "ns", "lower", "host_ops_per_s on open_tsue (one proc per arrival)"),
		host("sim.resource_use_ns", "ns", "lower", everywhere),
		host("sim.event_ns", "ns", "lower", everywhere),
		sim("sim.events_per_op", "count", "lower", "host_ops_per_s on the workload run: host time moves with events"),

		host("netsim.call_4k_ns", "ns", "lower", everywhere),
		host("netsim.call_4k_bytes", "B", "lower", "host_alloc_bytes_per_op everywhere"),
		host("netsim.call_4k_events", "count", "lower", "sim.events_per_op everywhere"),
		sim("netsim.bytes_per_user_byte", "x", "lower", "sim_update_p99_us on open_tsue, sim_recovery_mbps"),
		sim("netsim.msgs_per_op", "count", "lower", "sim_update_p50_us; sim.events_per_op"),
		sim("netsim.tx_util_pct", "%", "lower", "sim_update_p99_us on open_tsue, sim_recovery_mbps on recover_tsue"),

		host("device.write_4k_rand_ns", "ns", "lower", "host_ops_per_s on ten_plr"),
		host("device.write_64k_seq_ns", "ns", "lower", "host_ops_per_s on ali_tsue"),
		host("device.read_4k_ns", "ns", "lower", "host_ops_per_s on ten_plr"),
		sim("device.busy_frac", "x", "lower", "sim_update_p99_us, most on ten_plr"),
		sim("device.rand_write_ops_per_op", "count", "lower", "sim_update_p50_us and sim_dev_write_amp on ten_plr"),
		sim("device.seq_write_ops_per_op", "count", "lower", "sim_update_p50_us on ali_tsue"),
		sim("device.read_bytes_per_user_byte", "x", "lower", "sim_update_p50_us on ten_plr"),
		sim("device.nand_write_amp", "x", "lower", "sim_dev_write_amp"),
		sim("device.erases", "count", "lower", "SSD wear; 0 until a run is long enough to make the FTL collect"),

		host("blockstore.write_range_4k_in_1m_ns", "ns", "lower", rangeOps),
		host("blockstore.write_range_4k_in_1m_bytes", "B", "lower", rangeOps),
		host("blockstore.read_range_4k_in_1m_ns", "ns", "lower", rangeOps),
		host("blockstore.read_range_4k_in_1m_bytes", "B", "lower", rangeOps),
		host("blockstore.write_range_64k_in_1m_ns", "ns", "lower", rangeOps),
		host("blockstore.read_range_1m_ns", "ns", "lower", wholeBlock),
		host("blockstore.put_1m_ns", "ns", "lower", wholeBlock),
		host("blockstore.verify_stored_1m_ns", "ns", "lower", wholeBlock),

		host("logpool.insert_rand_4k_ns", "ns", "lower", "host_ops_per_s on ali_tsue; none on ten_plr"),
		host("logpool.insert_rand_4k_bytes", "B", "lower", "host_alloc_bytes_per_op on ali_tsue; none on ten_plr"),
		host("logpool.insert_seq_4k_ns", "ns", "lower", "host_ops_per_s on ali_tsue (adjacent appends are quadratic); none on ten_plr"),
		host("logpool.insert_seq_4k_bytes", "B", "lower", "host_alloc_bytes_per_op on ali_tsue; none on ten_plr"),
		host("logpool.insert_overlap_4k_ns", "ns", "lower", "host_ops_per_s on open_tsue (hot slots); none on ten_plr"),
		host("logpool.insert_overlap_4k_bytes", "B", "lower", "host_alloc_bytes_per_op on open_tsue; none on ten_plr"),
		host("logpool.pool_append_4k_ns", "ns", "lower", "host_ops_per_s on ali_tsue"),
		host("logpool.merge_units_ns", "ns", "lower", "host_ops_per_s on ali_tsue (recycle passes)"),
		host("logpool.overlay_4k_ns", "ns", "lower", "host_ops_per_s on ali_tsue reads"),

		host("placement.lookup_ns", "ns", "lower", control),
		host("trace.gen_next_ns", "ns", "lower", control),
	}
	for _, eng := range []string{"fo", "pl", "plr", "parix", "cord", "tsue"} {
		guard := "guard: a change aimed at one engine must not move the others"
		out = append(out,
			host("update."+eng+".host_us_per_op", "us", "lower", guard),
			sim("update."+eng+".sim_iops", "1/s", "higher", guard),
			host("update."+eng+".alloc_bytes_per_op", "B", "lower", guard),
		)
	}
	out = append(out, sim("update.tsue_over_best_baseline", "x", "higher", "the paper's ratio: TSUE IOPS over the best of the five baselines"))
	for _, layer := range []string{"data", "delta", "parity"} {
		moves := "sim_update_p50_us and sim_peak_log_mb on the TSUE workloads; 0 on ten_plr"
		out = append(out,
			sim("update.tsue."+layer+"_append_us", "us", "lower", moves),
			sim("update.tsue."+layer+"_buffer_ms", "ms", "lower", moves),
			sim("update.tsue."+layer+"_recycle_us", "us", "lower", moves),
		)
	}
	out = append(out,
		host("cluster.new_ms", "ms", "lower", "setup_s"),
		host("cluster.preload_ms", "ms", "lower", "setup_s"),
		host("cluster.replay_host_ms", "ms", "lower", "host_ops_per_s"),
		host("cluster.drain_host_ms", "ms", "lower", "host_ops_per_s"),
		host("cluster.scrub_host_ms", "ms", "lower", "nothing end to end: the gate is untimed"),
		host("cluster.recover_host_ms", "ms", "lower", recoverHot),
		sim("cluster.drain_sim_ms", "ms", "lower", "sim_dev_write_amp: the merge debt left when the replay ends"),
		sim("cluster.admission_rejected_per_op", "count", "lower", "sim_iops and sim_slo_rate on open_tsue"),
		sim("cluster.open_gen_lag_max_us", "us", "lower", "how late the open-loop generator ran; 0 in virtual time"),
	)
	for _, st := range []string{"client", "admission", "network", "service", "journal", "codec", "device"} {
		out = append(out, sim("obs.stage_"+st+"_us", "us", "lower", "sim_update_p50_us: mean per update in this stage"))
	}
	out = append(out,
		sim("obs.stage_sum_ratio", "x", "higher", "stage sums over end-to-end time; within 5% of 1 or the run fails"),
		sim("obs.spans_per_op", "count", "lower", "obs.trace_overhead_pct"),
		host("obs.trace_overhead_pct", "%", "lower", "host time of the traced pass over the untraced median"),
		host("host.peak_heap_mb", "MB", "lower", "host_ops_per_s through GC work"),
		host("host.gc_count", "count", "lower", "host_ops_per_s through GC work"),
		host("host.cpu_s_per_kop", "s", "lower", "host_ops_per_s: CPU seconds, both cores, per 1000 ops"),
		host("host.wall_iqr_pct", "%", "lower", "how steady host_ops_per_s was inside this run"),
	)
	return out
}()

// list prints the workloads and every metric.
func list(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.name, wl.why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END\tUNIT\tCLOCK\tBETTER\tBOUND\tREADS")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.0f%%\t%s\n", m.name, m.unit, m.clock, m.better, 100*m.bound, m.moves)
	}
	fmt.Fprintln(tw, "\nPER-LAYER\tUNIT\tCLOCK\tBETTER\t\tSHOULD MOVE")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t%s\n", m.name, m.unit, m.clock, m.better, m.moves)
	}
	return tw.Flush()
}
