package harness

import (
	"fmt"
	"time"

	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// Window is what a fault-window run measured of its foreground load. The
// window opens at t0, once the writers have warmed up to a third of
// cfg.Ops, and closes at t1, when the experiment's fault body returns.
type Window struct {
	// BaselineIOPS is foreground update throughput from the start of the
	// load to t0; DuringIOPS is throughput inside [t0, t1]; DipPct is the
	// relative drop.
	BaselineIOPS float64
	DuringIOPS   float64
	DipPct       float64
	// ReadLats are the latencies of reader-probe reads issued inside
	// [t0, t1] — the read-latency distribution the fault inflates, not just
	// the aggregate IOPS dip. Reads of degraded stripes route through the
	// surrogate (on-the-fly reconstruction + journal overlay) or block at
	// recovery gates, so the tail exposes each protocol's read-path cost.
	ReadLats []time.Duration
	// ReadErrs counts window reads that failed outright after exhausting
	// their retry budget (drain-first recovery serves no degraded reads —
	// the dead node's blocks are simply unreadable until rebuilt).
	ReadErrs int

	// readDist caches the sorted ReadLats; built on first ReadP call, after
	// the run has finished appending samples.
	readDist *LatencyDist
}

// ReadP returns the p-quantile of the window read latencies. The samples
// are sorted once and cached, so printing a row at p50/p95/p99 pays for one
// sort total.
func (w *Window) ReadP(p float64) time.Duration {
	if w.readDist == nil {
		d := NewLatencyDist(w.ReadLats)
		w.readDist = &d
	}
	return w.readDist.P(p)
}

// probe is one reader-probe read: when it was issued, how long it took,
// and whether it failed.
type probe struct {
	issued, lat time.Duration
	failed      bool
}

// load is the foreground workload of the fault-window experiments:
// cfg.Clients trace-driven update writers and an optional pool of reader
// probes, all running until the window closes. The experiment sequences
//
//	ld := s.startLoad(p, readers, think)
//	ld.warm(p)        // steady state reached: stamps t0
//	...               // the fault: kill+recover, expand, partition, ...
//	ld.closeWindow(p) // stamps t1, stops and waits out the load
type load struct {
	wg      *sim.WaitGroup
	stop    bool
	done    int   // completed updates
	err     error // first writer failure
	clients []wire.NodeID
	probes  []probe

	start, t0, t1 time.Duration
	warmOps       int // updates that count as warmed up: a third of cfg.Ops
	preOps        int // updates completed before t0
}

// startLoad launches the writers, then readers reader probes that each
// sleep think between reads. Clients are created in that order, each
// immediately before its proc is spawned. Every loop is capped at
// 20×Ops/Clients iterations: closing the window is the intended exit, the
// cap only bounds a runaway run, and it must stay high enough that clients
// keep offering load through a whole recovery — journaled degraded updates
// complete at log-append speed, far above the steady-state rate.
func (s *session) startLoad(p *sim.Proc, readers int, think time.Duration) *load {
	ld := &load{wg: sim.NewWaitGroup(s.c.Env), start: p.Now(), warmOps: max(s.cfg.Ops/3, 1)}
	s.ld = ld
	opsPer := 20 * s.cfg.Ops / s.cfg.Clients
	ld.wg.Add(s.cfg.Clients + readers)
	for ci := 0; ci < s.cfg.Clients; ci++ {
		ci := ci
		cl := s.c.NewClient()
		ld.clients = append(ld.clients, cl.ID())
		ino := s.inos[ci%len(s.inos)]
		gen := s.generator(s.cfg.Seed + int64(ci)*7919)
		s.c.Env.Go(fmt.Sprintf("fg%d", ci), func(cp *sim.Proc) {
			defer ld.wg.Done()
			for j := 0; j < opsPer && !ld.stop; j++ {
				// Update-only foreground: resample until a write, so the dip
				// measures the update path.
				op := gen.Next()
				for op.Kind != trace.Write {
					op = gen.Next()
				}
				if err := s.issue(cp, cl, ino, op); err != nil {
					if ld.err == nil {
						ld.err = fmt.Errorf("foreground client %d op %d: %w", ci, j, err)
					}
					return
				}
				ld.done++
			}
		})
	}
	// Reader probes issue trace-shaped reads at a gentle pace, so the window
	// yields a read-latency distribution without the probes becoming the
	// load. A probe read CAN fail legitimately: drain-first recovery never
	// serves the dead node's blocks.
	for ri := 0; ri < readers; ri++ {
		cl := s.c.NewClient()
		ld.clients = append(ld.clients, cl.ID())
		ino := s.inos[ri%len(s.inos)]
		gen := s.generator(s.cfg.Seed + int64(1000+ri)*104651)
		s.c.Env.Go(fmt.Sprintf("rd%d", ri), func(cp *sim.Proc) {
			defer ld.wg.Done()
			for j := 0; j < opsPer && !ld.stop; j++ {
				op := gen.Next()
				op.Kind = trace.Read // probes read wherever the trace points
				issued := cp.Now()
				err := s.issue(cp, cl, ino, op)
				ld.probes = append(ld.probes, probe{issued: issued, lat: cp.Now() - issued, failed: err != nil})
				cp.Sleep(think)
			}
		})
	}
	return ld
}

// warm waits until the writers have completed warmOps updates — steady
// state — and opens the window.
func (ld *load) warm(p *sim.Proc) error {
	for ld.done < ld.warmOps && ld.err == nil {
		p.Sleep(100 * time.Microsecond)
	}
	ld.t0, ld.preOps = p.Now(), ld.done
	return ld.err
}

// closeWindow closes the window at the current instant, stops the load,
// waits it out and returns what it measured.
func (ld *load) closeWindow(p *sim.Proc) (Window, error) {
	ld.t1 = p.Now()
	duringOps := ld.done - ld.preOps
	ld.stop = true
	ld.wg.Wait(p)
	var w Window
	if ld.err != nil {
		return w, ld.err
	}
	for _, pr := range ld.probes {
		if pr.issued < ld.t0 || pr.issued > ld.t1 {
			continue
		}
		if pr.failed {
			w.ReadErrs++
		} else {
			w.ReadLats = append(w.ReadLats, pr.lat)
		}
	}
	if d := (ld.t0 - ld.start).Seconds(); d > 0 {
		w.BaselineIOPS = float64(ld.preOps) / d
	}
	if d := (ld.t1 - ld.t0).Seconds(); d > 0 {
		w.DuringIOPS = float64(duringOps) / d
	}
	if w.BaselineIOPS > 0 {
		w.DipPct = 100 * (1 - w.DuringIOPS/w.BaselineIOPS)
	}
	return w, nil
}
