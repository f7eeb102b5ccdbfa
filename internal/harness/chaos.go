package harness

// The chaos experiment: the same foreground update + reader-probe workload
// as the degraded experiment, but with the netsim fault fabric armed —
// stragglers, asymmetric partitions, flapping OSDs, in-flight payload
// corruption — measuring the window read-latency tail (p50/p95/p99) each
// engine exposes under each fault, plus the hedged-read and checksum
// counters that prove the mitigation machinery ran. The straggler and
// baseline scenarios kill and recover an OSD (RecoverInterleaved, so
// degraded reads reconstruct on the fly and hedging has a primary leg to
// race); the live-fault scenarios (partition, flap, corrupt) keep the
// cluster whole and bound the fault to a virtual-time window.

import (
	"fmt"
	"io"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/update"
)

// Chaos scenario names. Order matters to the driver: baseline runs before
// straggler so the p99 degradation ratio can be computed in one pass.
const (
	ChaosBaseline  = "baseline"  // kill + interleaved recovery, no added fault
	ChaosStraggler = "straggler" // kill + recovery with one lognormal-slow survivor, hedging armed
	ChaosPartition = "partition" // asymmetric client→OSD cuts for a window, then heal
	ChaosFlap      = "flap"      // one OSD flaps down/up; tears scrubbed after heal
	ChaosCorrupt   = "corrupt"   // every Nth checksum-bearing payload flipped in flight
)

// ChaosScenarios lists the scenarios in driver order.
func ChaosScenarios() []string {
	return []string{ChaosBaseline, ChaosStraggler, ChaosPartition, ChaosFlap, ChaosCorrupt}
}

// chaosHedgeDelay arms hedged degraded reads for the kill scenarios: well
// above a healthy small-range reconstruction (device read + one RTT), well
// below the straggler's median, so the hedge stays quiet on the baseline
// and wins under the straggler.
const chaosHedgeDelay = time.Millisecond

// chaosStragglerDist is the straggler's service-time distribution — the
// lognormal tail the hedging literature models, not a deterministic stall
// (the chaos grid tests pin the deterministic case).
func chaosStragglerDist() netsim.Dist {
	return netsim.Lognormal{Median: 5 * time.Millisecond, Sigma: 0.6}
}

// chaosCorruptRate flips one in this many eligible (checksum-bearing,
// data-carrying) payloads during the corrupt window — low enough that even
// a small-scale run injects a handful, high enough that the retry storm
// stays a perturbation rather than the workload.
const chaosCorruptRate = 31

// ChaosResult captures one chaos run.
type ChaosResult struct {
	Cfg      RunConfig
	Scenario string
	// Report is the recovery report for the kill scenarios; nil for the
	// live-fault scenarios (partition, flap, corrupt), which never kill.
	Report *cluster.RecoveryReport
	// Window is the foreground load inside the fault window: the IOPS dip
	// and the read tail the fault inflates.
	Window
	// HedgeFired/HedgeWins aggregate the hedged-read counters across OSDs.
	HedgeFired, HedgeWins int64
	// CorruptInjected is what the fabric flipped; CorruptDetected what the
	// checksum verify points caught. The run fails if any escape.
	CorruptInjected, CorruptDetected int64
	// RepairedBlocks counts blocks ScrubRepair re-encoded after the flap
	// scenario (stripes torn by mid-update message drops).
	RepairedBlocks int
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int
}

// chaosKills reports whether the scenario fails and recovers an OSD.
func chaosKills(scenario string) bool {
	return scenario == ChaosBaseline || scenario == ChaosStraggler
}

// RunChaos preloads a volume, runs the degraded experiment's foreground
// update workload with a denser reader-probe pool (the fault windows are
// short fixed slices of virtual time, so the tail estimate needs every
// sample it can get), arms the scenario's fault a third of the way through,
// and measures the read tail inside the fault window. Kill scenarios
// recover under RecoverInterleaved after the window closes; live-fault
// scenarios heal the fabric after a fixed virtual window. Every run ends
// with a drain, a tear-repair scrub where the fault can tear stripes, and a
// full verification scrub.
func RunChaos(cfg RunConfig, scenario string) (*ChaosResult, error) {
	res := &ChaosResult{Cfg: cfg, Scenario: scenario}
	err := runSession(cfg, func(s *session, p *sim.Proc) error {
		ld := s.startLoad(p, max(cfg.Clients/2, 4), 250*time.Microsecond)
		if err := ld.warm(p); err != nil {
			return err
		}
		// The fault targets the most-loaded OSD, so it intersects the
		// workload (and, for the kill scenarios, the rebuild volume is
		// representative).
		victim, fab := mostLoaded(s.c, 0), s.c.Fabric
		switch scenario {
		case ChaosBaseline, ChaosStraggler:
			// Degraded window of fixed virtual length: the victim is down
			// and the degraded route serves (reads of lost blocks
			// reconstruct on the fly, updates journal at the surrogate),
			// with the most-loaded survivor lognormal-slow in the straggler
			// variant. Recovery runs AFTER the window closes, so the
			// measured tail is the straggler's (and the hedge's), not each
			// engine's rebuild-duration artifact.
			straggler := mostLoaded(s.c, victim)
			if err := s.c.BeginDegraded(p, victim, s.admin); err != nil {
				return fmt.Errorf("begin degraded (%s): %w", scenario, err)
			}
			if scenario == ChaosStraggler {
				if err := fab.SetNodeLatency(straggler, chaosStragglerDist()); err != nil {
					return err
				}
			}
			p.Sleep(10 * time.Millisecond)
			if scenario == ChaosStraggler {
				if err := fab.SetNodeLatency(straggler, nil); err != nil {
					return err
				}
			}
		case ChaosPartition:
			// Asymmetric grey failure: every client loses its link TO the
			// OSD (requests die pre-handler, so no side effects); ops
			// touching it retry until the heal.
			for _, cid := range ld.clients {
				if err := fab.Partition(cid, victim, true); err != nil {
					return err
				}
			}
			p.Sleep(4 * time.Millisecond)
			for _, cid := range ld.clients {
				if err := fab.Partition(cid, victim, false); err != nil {
					return err
				}
			}
			p.Sleep(time.Millisecond) // let retried ops land inside the window
		case ChaosFlap:
			// The OSD flaps down/up mid-update. Drops inside the flap
			// windows can tear stripes (data applied, parity delta lost,
			// retried delta XORs to zero) — ScrubRepair re-encodes them
			// after the drain, before the verification scrub.
			if err := fab.ScheduleFlap(victim, p.Now()+200*time.Microsecond, 500*time.Microsecond, 1500*time.Microsecond, 3); err != nil {
				return err
			}
			p.Sleep(6 * time.Millisecond) // outlasts the last flap window
		case ChaosCorrupt:
			fab.SetCorruptor(cluster.FlipCorruptor(chaosCorruptRate))
			p.Sleep(6 * time.Millisecond)
			fab.SetCorruptor(nil)
		default:
			return fmt.Errorf("unknown chaos scenario %q", scenario)
		}
		var err error
		if res.Window, err = ld.closeWindow(p); err != nil {
			return err
		}
		if chaosKills(scenario) {
			if res.Report, err = s.c.Recover(p, victim, 8, cluster.RecoverInterleaved, s.admin); err != nil {
				return fmt.Errorf("recover (%s): %w", scenario, err)
			}
		}
		res.HedgeFired, res.HedgeWins = s.c.HedgeStats()
		res.CorruptInjected = fab.CorruptionsInjected()
		res.CorruptDetected = s.c.CorruptionsDetected()
		if res.CorruptDetected != res.CorruptInjected {
			return fmt.Errorf("%s: %d corruptions injected but %d detected — silent escape",
				scenario, res.CorruptInjected, res.CorruptDetected)
		}
		if err := s.drain(p); err != nil {
			return err
		}
		if scenario == ChaosFlap {
			if res.RepairedBlocks, _, err = s.c.ScrubRepair(p); err != nil {
				return fmt.Errorf("scrub-repair after flap: %w", err)
			}
		}
		res.Stripes, err = s.scrub()
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Chaos runs the chaos experiment: every engine × every fault scenario
// under the foreground workload, reporting the window read tail
// (p50/p95/p99), the IOPS dip, the hedge fired/win counters, the
// corruption injected/detected counters (which must match), and — the
// headline comparison — each engine's straggler p99 degradation relative
// to its own clean-recovery baseline.
func Chaos(w io.Writer, s Scale) error {
	t := s.table(w, "chaos", "== Chaos: read tail under injected faults (SSD, RS(6,4), interleaved recovery for kill scenarios) ==",
		"engine\tscenario\trecover(ms)\tbase IOPS\tduring IOPS\tdip\trd p50(ms)\trd p95(ms)\trd p99(ms)\trd err\thedge f/w\tcorrupt i/d\trepaired\tp99 vs base")
	for _, eng := range update.Names() {
		var baselineP99 float64
		for _, scen := range ChaosScenarios() {
			cfg := s.config(eng, "ali", 16)
			if chaosKills(scen) {
				cfg.Hedge = chaosHedgeDelay
			}
			r, err := RunChaos(cfg, scen)
			if err != nil {
				return fmt.Errorf("chaos %s %s: %w", eng, scen, err)
			}
			recoverMS := 0.0
			if r.Report != nil {
				recoverMS = ms(r.Report.TotalTime)
			}
			p99 := ms(r.ReadP(0.99))
			ratio := ""
			if scen == ChaosBaseline {
				baselineP99 = p99
			} else if scen == ChaosStraggler {
				if baselineP99 > 0 {
					rr := p99 / baselineP99
					ratio = fmt.Sprintf("%.2fx", rr)
					s.Sink.Record("chaos", "straggler_p99_ratio", map[string]string{"engine": eng}, rr)
				} else {
					// An empty baseline window must not read as "no
					// regression" in the BENCH trajectory: say so out loud
					// and leave the ratio metric absent.
					ratio = "skip (no baseline reads)"
					fmt.Fprintf(w, "chaos %s: baseline window saw 0 reads; skipping straggler_p99_ratio\n", eng)
				}
			}
			cells := []cell{
				{"read_samples", "", len(r.ReadLats)},
				{"", "%.1f", recoverMS},
				{"", "%.0f", r.BaselineIOPS}, {"", "%.0f", r.DuringIOPS}, {"", "%.0f%%", r.DipPct},
				{"read_p50_ms", "%.2f", ms(r.ReadP(0.50))},
				{"read_p95_ms", "%.2f", ms(r.ReadP(0.95))},
				{"read_p99_ms", "%.2f", p99},
				{"read_errs", "%d", r.ReadErrs},
				{"dip_pct", "", r.DipPct},
				{"", "%s", fmt.Sprintf("%d/%d", r.HedgeFired, r.HedgeWins)},
				{"hedge_fired", "", r.HedgeFired}, {"hedge_wins", "", r.HedgeWins},
				{"", "%s", fmt.Sprintf("%d/%d", r.CorruptInjected, r.CorruptDetected)},
				{"corrupt_injected", "", r.CorruptInjected}, {"corrupt_detected", "", r.CorruptDetected},
				{"", "%d", r.RepairedBlocks},
				{"", "%s", ratio},
			}
			if r.Report != nil {
				cells = append(cells, cell{"recover_ms", "", recoverMS})
			}
			if scen == ChaosFlap {
				cells = append(cells, cell{"repaired_blocks", "", r.RepairedBlocks})
			}
			t.row(map[string]string{"engine": eng, "scenario": scen}, eng+"\t"+scen, cells)
		}
	}
	return t.Flush()
}
