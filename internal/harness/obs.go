package harness

// The obs experiment (beyond the paper's figures): per-stage latency
// attribution for the update path of every engine, from end-to-end traces.
// Each engine is calibrated closed-loop, then driven open-loop at two
// offered-load points (below and near the knee) with every op traced.
// The assembled traces break each update's end-to-end time into
// client/admission/network/service/journal/codec/device stages — the sums
// reproduce the end-to-end duration exactly, which the stage_sum_ratio
// metric asserts — and the dominant-hop signatures of the p99 tail name
// the critical path a profiler would point at. A per-hop line names the
// hops with the most mean exclusive time per update, and per pass of each
// background recycle root (TSUE's op:recycle:<layer>); for TSUE a second
// line counts, per log layer, the traces whose appends stalled there and
// their mean exclusive stall time, which names the layer that backs up
// first. A same-seed repeat
// of one point byte-compares the canonical span encoding, pinning the
// tracer's determinism claim in the bench artifact itself.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/obs"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// obsFractions is the offered-load grid as fractions of each engine's
// closed-loop calibration throughput: one point comfortably below the
// saturation knee, one near it, so queueing's migration between stages
// (device-bound at low load, network/service-bound near the knee) shows
// in the breakdown deltas.
var obsFractions = []float64{0.4, 0.8}

// obsNICPeriod is the virtual-time period of the NIC load sampler.
const obsNICPeriod = 500 * time.Microsecond

// nicSampler returns the periodic NIC poll: per node, the tx busy time
// gained since the previous tick, summed into the registry counter
// nic_tx_busy_ns, with nic_tx_samples counting one per node per tick — so
// utilization is busy time over samples x period.
func nicSampler() func(c *cluster.Cluster, now time.Duration) {
	prevTx := make(map[wire.NodeID]time.Duration)
	return func(c *cluster.Cluster, now time.Duration) {
		busy, samples := c.Obs.Reg.Counter("nic_tx_busy_ns"), c.Obs.Reg.Counter("nic_tx_samples")
		for _, id := range c.Fabric.NodeIDs() {
			tx, _, _, _ := c.Fabric.NICLoad(id)
			busy.Add(uint64(tx - prevTx[id]))
			samples.Inc()
			prevTx[id] = tx
		}
	}
}

// obsPoint is the derived view of one engine x load point.
type obsPoint struct {
	traces int
	e2e    time.Duration // mean end-to-end update latency
	stages [obs.NStages]time.Duration
	ratio  float64 // sum(stage means) / e2e mean — 1.0 by construction
	p99    time.Duration
	sigs   []obs.SigCount // top dominant-hop signatures at p99
	hops   []string       // top hops per update, then per pass of each recycle root
	stalls string         // per TSUE log layer: stalled traces x mean stall
}

// topHops ranks the hop signatures of traces (one TraceView.Hops map per
// trace) by mean exclusive time per trace and formats the top k.
func topHops(hops []map[string]time.Duration, k int) string {
	sums := make(map[string]time.Duration)
	for _, h := range hops {
		for sig, d := range h {
			sums[sig] += d
		}
	}
	sigs := make([]string, 0, len(sums))
	for sig := range sums {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if sums[sigs[i]] != sums[sigs[j]] {
			return sums[sigs[i]] > sums[sigs[j]]
		}
		return sigs[i] < sigs[j]
	})
	parts := make([]string, 0, k)
	for _, sig := range sigs[:min(k, len(sigs))] {
		mean := sums[sig] / time.Duration(len(hops))
		parts = append(parts, fmt.Sprintf("%s %v", sig, mean.Round(100*time.Nanosecond)))
	}
	return strings.Join(parts, ", ")
}

// logStalls formats, per TSUE log layer, how many traces (one
// TraceView.Hops map each) stalled in that layer's append — the hop
// "journal:log:stall:tsue-<layer>" — and their mean exclusive stall time.
func logStalls(hops []map[string]time.Duration) string {
	var parts []string
	for _, l := range []string{"data", "delta", "parity"} {
		sig := obs.StageJournal.String() + ":log:stall:tsue-" + l
		n, sum := 0, time.Duration(0)
		for _, h := range hops {
			if d := h[sig]; d > 0 {
				n++
				sum += d
			}
		}
		mean := time.Duration(0)
		if n > 0 {
			mean = sum / time.Duration(n)
		}
		parts = append(parts, fmt.Sprintf("%s %d x %v", l, n, mean.Round(100*time.Nanosecond)))
	}
	return strings.Join(parts, ", ")
}

// analyzeUpdates assembles spans into traces and reduces the update traces
// (normal and degraded) to per-stage means, the update and recycle traces
// to their top hops, and both to TSUE's per-layer log stalls.
func analyzeUpdates(spans []obs.Span) obsPoint {
	tvs := obs.GroupTraces(spans)
	var upd []obs.TraceView
	var durs []time.Duration
	var updHops, allHops []map[string]time.Duration
	recycles := make(map[string][]map[string]time.Duration)
	var roots []string
	for _, tv := range tvs {
		switch tv.Op {
		case obs.OpUpdate, obs.OpDegradedUpdate:
			h := tv.Hops()
			upd = append(upd, tv)
			durs = append(durs, tv.Duration())
			updHops = append(updHops, h)
			allHops = append(allHops, h)
		case obs.OpRecycle:
			if _, ok := recycles[tv.Root.Name]; !ok {
				roots = append(roots, tv.Root.Name)
			}
			h := tv.Hops()
			recycles[tv.Root.Name] = append(recycles[tv.Root.Name], h)
			allHops = append(allHops, h)
		}
	}
	pt := obsPoint{traces: len(upd)}
	if len(upd) == 0 {
		return pt
	}
	var sumE2E, sumStages time.Duration
	var stageSums [obs.NStages]time.Duration
	for i := range upd {
		sumE2E += upd[i].Duration()
		bd := upd[i].Breakdown()
		for s := range bd {
			stageSums[s] += bd[s]
			sumStages += bd[s]
		}
	}
	n := time.Duration(len(upd))
	pt.e2e = sumE2E / n
	for s := range stageSums {
		pt.stages[s] = stageSums[s] / n
	}
	pt.ratio = float64(sumStages) / float64(sumE2E)
	pt.p99 = NewLatencyDist(durs).P(0.99)
	pt.sigs = obs.TopSignatures(upd, pt.p99, 3)
	pt.hops = []string{"update: " + topHops(updHops, 3)}
	sort.Strings(roots)
	for _, r := range roots {
		pt.hops = append(pt.hops, r+": "+topHops(recycles[r], 3))
	}
	pt.stalls = logStalls(allHops)
	return pt
}

// nicTxUtil reduces nicSampler's counters to a mean tx-link utilization
// percentage: total busy time gained across all ticks and nodes, over the
// virtual time those ticks spanned.
func nicTxUtil(res *OpenLoopResult) float64 {
	n := res.Metrics["nic_tx_samples"]
	if n == 0 {
		return 0
	}
	return 100 * res.Metrics["nic_tx_busy_ns"] / (n * float64(obsNICPeriod))
}

// Obs runs the observability experiment: per-engine, per-load-point stage
// breakdown of update latency, p99 critical-path signatures, NIC
// utilization from the periodic sampler, and a same-seed trace-determinism
// byte check. Load points are the saturation sweep's (calibrated grid,
// admission armed so the admission stage has real content) with every op
// traced.
func Obs(w io.Writer, s Scale) error {
	t := s.table(w, "obs", "== Obs: per-stage update-latency attribution from end-to-end traces ==",
		"engine\tload\ttraces\te2e(ms)\tclient\tadmission\tnetwork\tservice\tjournal\tcodec\tdevice\tsum/e2e\tnicTx%\ttop p99 hop")
	var hops []string // printed after the table
	for _, eng := range update.Names() {
		cfg, calibIOPS, err := s.calibrate("obs", eng)
		if err != nil {
			return err
		}
		cfg.TraceSample = 1
		for _, frac := range obsFractions {
			res, err := offerLoad(cfg, calibIOPS*frac, cfg.Ops, nicSampler())
			if err != nil {
				return fmt.Errorf("obs %s %.2fx: %w", eng, frac, err)
			}
			pt := analyzeUpdates(res.Spans)
			if pt.traces == 0 {
				return fmt.Errorf("obs %s %.2fx: no update traces recorded", eng, frac)
			}
			sig := ""
			if len(pt.sigs) > 0 {
				sig = fmt.Sprintf("%s x%d", pt.sigs[0].Sig, pt.sigs[0].N)
			}
			at := fmt.Sprintf("%.2fx", frac)
			nicTx := nicTxUtil(res)
			cells := []cell{
				{"traces", "%d", pt.traces},
				{"e2e_ms", "%.2f", ms(pt.e2e)},
				{"stage_sum_ratio", "", pt.ratio},
				{"p99_ms", "", ms(pt.p99)},
				{"nic_tx_util_pct", "", nicTx},
			}
			for st := obs.Stage(0); st < obs.NStages; st++ {
				cells = append(cells, cell{"stage_" + st.String() + "_ms", "%.2f", ms(pt.stages[st])})
			}
			t.row(map[string]string{"engine": eng, "load": at}, eng+"\t"+at, append(cells,
				cell{"", "%.3f", pt.ratio}, cell{"", "%.1f", nicTx}, cell{"", "%s", sig}))
			for rank, sc := range pt.sigs {
				sl := map[string]string{"engine": eng, "load": at,
					"rank": fmt.Sprintf("%d", rank+1), "sig": sc.Sig}
				s.Sink.Record("obs", "p99_sig_n", sl, float64(sc.N))
			}
			hops = append(hops, fmt.Sprintf("top hops %s %s: %s", eng, at, strings.Join(pt.hops, "; ")))
			if eng == "tsue" {
				hops = append(hops, fmt.Sprintf("log stalls %s %s (traces x mean stall): %s", eng, at, pt.stalls))
			}
			if pt.ratio < 0.95 || pt.ratio > 1.05 {
				return fmt.Errorf("obs %s %.2fx: stage sums are %.3f of end-to-end (want within 5%%)", eng, frac, pt.ratio)
			}
		}
	}

	// Determinism: the same seed must reproduce the same spans, byte for
	// byte, in the canonical encoding. Two fresh runs of one point (tsue at
	// a low fixed rate, no sampler — the check is about the tracer, not the
	// poll cadence).
	cfg := s.loadPointConfig("tsue")
	cfg.TraceSample = 1
	var runs [2]*OpenLoopResult
	for i := range runs {
		var err error
		if runs[i], err = offerLoad(cfg, 200, cfg.Ops/2, nil); err != nil {
			return fmt.Errorf("obs determinism run %d: %w", i+1, err)
		}
	}
	a, b := runs[0].Spans, runs[1].Spans
	if !bytes.Equal(obs.Encode(a), obs.Encode(b)) {
		return fmt.Errorf("obs: same-seed runs produced different traces (%d vs %d spans)", len(a), len(b))
	}
	s.Sink.Record("obs", "trace_deterministic", map[string]string{"spans": fmt.Sprintf("%d", len(a))}, 1)
	if err := t.Flush(); err != nil {
		return err
	}
	for _, l := range hops {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "trace determinism: OK (%d spans byte-identical across two same-seed runs)\n", len(a))
	return nil
}
