package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/rebalance"
	"tsue/internal/sim"
)

// windowTestConfig is a seconds-scale run of the fault-window experiments:
// four files of 256 KiB blocks, so an expansion has PGs to move.
func windowTestConfig() RunConfig {
	s := QuickScale()
	s.Ops, s.FileMB, s.Files = 300, 8, 4
	return s.multiFileConfig("tsue", 8, 64)
}

// TestWindowedRuns runs each fault-window experiment twice with the same
// seed: the results must be identical, scrubbed, and carry a window whose
// dip is the one its two throughputs imply.
func TestWindowedRuns(t *testing.T) {
	rcfg := rebalance.Config{}
	cases := []struct {
		name   string
		probes bool // the load runs reader probes
		// run returns the full result, its window (nil: the experiment
		// reports none) and the scrubbed stripe count.
		run func(RunConfig) (res any, w *Window, stripes int, err error)
	}{
		{"degraded-interleaved", true, func(cfg RunConfig) (any, *Window, int, error) {
			r, err := RunDegraded(cfg, cluster.RecoverInterleaved)
			if err != nil {
				return nil, nil, 0, err
			}
			return r, &r.Window, r.Stripes, nil
		}},
		{"rebalance", false, func(cfg RunConfig) (any, *Window, int, error) {
			r, err := RunRebalance(cfg, rcfg, 1)
			if err != nil {
				return nil, nil, 0, err
			}
			return r, &r.Window, r.Stripes, nil
		}},
		{"rebalance-kill", false, func(cfg RunConfig) (any, *Window, int, error) {
			r, err := RunRebalanceKill(cfg, rcfg)
			if err != nil {
				return nil, nil, 0, err
			}
			return r, nil, r.Stripes, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, w, stripes, err := tc.run(windowTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			b, _, _, err := tc.run(windowTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
			}
			if stripes == 0 {
				t.Fatal("scrub verified zero stripes")
			}
			if w == nil {
				return
			}
			if w.BaselineIOPS <= 0 || w.DuringIOPS <= 0 {
				t.Fatalf("window throughput not populated: %+v", *w)
			}
			if want := 100 * (1 - w.DuringIOPS/w.BaselineIOPS); w.DipPct != want {
				t.Fatalf("DipPct %v, want %v from %v -> %v IOPS", w.DipPct, want, w.BaselineIOPS, w.DuringIOPS)
			}
			if got := len(w.ReadLats) + w.ReadErrs; (got > 0) != tc.probes {
				t.Fatalf("%d window reads, reader probes armed: %v", got, tc.probes)
			}
		})
	}
}

// TestLoadWindowBounds drives the load directly around a fixed-length
// fault: the window must hold exactly the probe reads issued inside
// [t0, t1], while the warm-up reads before t0 stay out of it.
func TestLoadWindowBounds(t *testing.T) {
	s, err := newSession(windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var ld *load
	var w Window
	err = s.run(func(p *sim.Proc) error {
		ld = s.startLoad(p, 2, 100*time.Microsecond)
		if err := ld.warm(p); err != nil {
			return err
		}
		p.Sleep(2 * time.Millisecond)
		var err error
		if w, err = ld.closeWindow(p); err != nil {
			return err
		}
		_, err = s.finish(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ld.t1-ld.t0 != 2*time.Millisecond {
		t.Fatalf("window [%v, %v] is not the 2ms fault", ld.t0, ld.t1)
	}
	inside, before := 0, 0
	for _, pr := range ld.probes {
		switch {
		case pr.issued < ld.t0:
			before++
		case pr.issued <= ld.t1:
			inside++
		default:
			t.Fatalf("probe issued at %v, after the window closed at %v", pr.issued, ld.t1)
		}
	}
	if before == 0 || inside == 0 {
		t.Fatalf("%d warm-up and %d window probes: the filter is not exercised", before, inside)
	}
	if got := len(w.ReadLats) + w.ReadErrs; got != inside {
		t.Fatalf("window holds %d reads, %d were issued inside it", got, inside)
	}
}

// TestFaultErrorStopsLoad: a fault step that fails surfaces its error, the
// foreground load stops instead of running to its iteration cap, and
// teardown drops no queued delivery.
func TestFaultErrorStopsLoad(t *testing.T) {
	cfg := windowTestConfig()
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fault step failed")
	var ld *load
	err = s.run(func(p *sim.Proc) error {
		ld = s.startLoad(p, 2, 100*time.Microsecond)
		if err := ld.warm(p); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the fault's error", err)
	}
	if !ld.stop || ld.done >= cfg.Ops {
		t.Fatalf("load kept running after the fault failed: stop=%v, %d updates done", ld.stop, ld.done)
	}
	s.close()
	if n := s.c.Env.DroppedPuts(); n != 0 {
		t.Fatalf("teardown dropped %d queued puts", n)
	}
	if s.c.Env.LiveProcs() != 0 {
		t.Fatalf("%d procs alive after close", s.c.Env.LiveProcs())
	}

	// The same path through an exported run: the fault switch rejects the
	// scenario after the load is warm.
	if _, err := RunChaos(cfg, "no-such-fault"); err == nil || !strings.Contains(err.Error(), "unknown chaos scenario") {
		t.Fatalf("RunChaos with an unknown scenario: %v", err)
	}
}
