package harness

// Harness-level chaos smoke: every scenario must run to a clean scrub at a
// small scale, the corrupt scenario must detect every injection (RunChaos
// errors internally otherwise), and the parix flap regression stays
// pinned — a flapping parity OSD used to leave a latest-without-orig log
// that crashed recycleAll on drain.

import (
	"testing"
)

func chaosTestConfig(engine string) RunConfig {
	cfg := QuickScale().config(engine, "ali", 16)
	cfg.Ops = 800
	cfg.FileBytes = 8 << 20
	return cfg
}

func TestChaosScenariosSmoke(t *testing.T) {
	for _, scen := range ChaosScenarios() {
		scen := scen
		t.Run(scen, func(t *testing.T) {
			cfg := chaosTestConfig("tsue")
			if chaosKills(scen) {
				cfg.Hedge = chaosHedgeDelay
			}
			r, err := RunChaos(cfg, scen)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stripes == 0 {
				t.Fatal("scrub verified zero stripes")
			}
			if len(r.ReadLats) == 0 && r.ReadErrs == 0 {
				t.Fatal("no reads landed in the fault window")
			}
			if scen == ChaosCorrupt && r.CorruptInjected == 0 {
				t.Fatal("corrupt scenario injected nothing")
			}
		})
	}
}

// TestChaosParixFlapRegression pins the partial-orig-fanout crash: a
// flapping OSD failing a PARIX first-write orig round mid-fan-out leaves a
// parity log with speculative records but no baseline, which recycleAll
// must survive (folding against an empty baseline; the scrub-repair pass
// owns the torn stripe).
func TestChaosParixFlapRegression(t *testing.T) {
	r, err := RunChaos(chaosTestConfig("parix"), ChaosFlap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stripes == 0 {
		t.Fatal("scrub verified zero stripes")
	}
}

// TestChaosStragglerHedges checks the kill-scenario plumbing end to end:
// with a lognormal straggler among the survivors and hedging armed, the
// recovery-window reconstructions must actually fire hedges.
func TestChaosStragglerHedges(t *testing.T) {
	cfg := chaosTestConfig("tsue")
	cfg.Hedge = chaosHedgeDelay
	r, err := RunChaos(cfg, ChaosStraggler)
	if err != nil {
		t.Fatal(err)
	}
	if r.Report == nil {
		t.Fatal("straggler scenario returned no recovery report")
	}
	if r.HedgeFired == 0 {
		t.Fatal("no hedges fired under a lognormal straggler")
	}
	if r.HedgeWins > r.HedgeFired {
		t.Fatalf("hedge wins %d exceed fires %d", r.HedgeWins, r.HedgeFired)
	}
}
