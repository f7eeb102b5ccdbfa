package harness

// The rebalance experiment (beyond the paper, after its ROADMAP item
// "placement epochs ... measure the resulting data movement against the
// minimal-remap bound"): run a multi-file foreground update workload, add
// one or more OSDs mid-run, and migrate online under the throttled
// rebalance engine. Reported per engine: blocks actually moved vs the
// minimal-remap lower bound, catch-up re-copies (raw bytes dirtied during
// the bulk copy), overlay records that followed their blocks (TSUE's
// log-follows-block cutover; in-place schemes drain instead and show up as
// re-copies and longer stalls), the per-PG cutover stall, and the
// foreground IOPS dip while the expansion runs — the migration-bandwidth
// cost Kermarrec et al. and the Facebook warehouse study identify as the
// dominant operational burden.

import (
	"fmt"
	"io"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/rebalance"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// RebalanceResult captures one online-expansion run.
type RebalanceResult struct {
	Cfg RunConfig
	// Reports holds one migration report per added OSD (sequential
	// transitions).
	Reports []*rebalance.Report
	// NewOSDs lists the added node IDs.
	NewOSDs []wire.NodeID
	// Window is the foreground load while the expansion runs: the IOPS dip
	// (no reader probes, so no read latencies).
	Window
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int
}

// RunRebalance preloads a multi-file working set, runs a continuous
// foreground update workload, and a third of the way through adds addOSDs
// OSDs one after another, each with a full online migration under rcfg.
// The run ends with a drain and a full scrub.
func RunRebalance(cfg RunConfig, rcfg rebalance.Config, addOSDs int) (*RebalanceResult, error) {
	if addOSDs < 1 {
		return nil, fmt.Errorf("harness: addOSDs must be >= 1, got %d", addOSDs)
	}
	res := &RebalanceResult{Cfg: cfg}
	err := runSession(cfg, func(s *session, p *sim.Proc) error {
		ld := s.startLoad(p, 0, 0)
		if err := ld.warm(p); err != nil {
			return err
		}
		for i := 0; i < addOSDs; i++ {
			rep, id, err := s.c.Expand(p, s.admin, rcfg)
			if err != nil {
				return fmt.Errorf("expand %d: %w", i, err)
			}
			res.Reports = append(res.Reports, rep)
			res.NewOSDs = append(res.NewOSDs, id)
		}
		var err error
		if res.Window, err = ld.closeWindow(p); err != nil {
			return err
		}
		res.Stripes, err = s.finish(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RebalanceKillResult captures one kill-during-rebalance run: an OSD dies
// mid-migration, the transition resolves per PG (abort/finish), recovery
// runs under the settled epoch, and the run ends verified.
type RebalanceKillResult struct {
	Cfg    RunConfig
	Report *rebalance.Report
	// Victim is the killed OSD (a migration source); SettledEpoch is where
	// the transition committed after per-PG resolution.
	Victim       wire.NodeID
	SettledEpoch uint64
	Recovery     *cluster.RecoveryReport
	// Quorum* aggregate journal quorum replication traffic during the
	// recovery's degraded window (sent = surrogate→holder appends acked,
	// held = replica records the holders retain).
	QuorumSentMsgs, QuorumSentBytes int64
	QuorumHeldMsgs, QuorumHeldBytes int64
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int
}

// RunRebalanceKill preloads a working set, expands online under a
// foreground update workload, kills a migration-source OSD after the
// first PG's copies begin (via the transition hook, so the injection
// point is deterministic), waits for the per-PG resolution, recovers the
// node under the settled epoch, and verifies with a drain + scrub.
func RunRebalanceKill(cfg RunConfig, rcfg rebalance.Config) (*RebalanceKillResult, error) {
	res := &RebalanceKillResult{Cfg: cfg}
	err := runSession(cfg, func(s *session, p *sim.Proc) error {
		ld := s.startLoad(p, 0, 0)
		if err := ld.warm(p); err != nil {
			return err
		}
		// Arm the kill: the first PG to finish its first copy loses its
		// move source.
		s.c.SetTransHook(func(ev cluster.TransEvent) {
			if res.Victim != 0 || ev.Stage != cluster.StageCopying || ev.Copied == 0 {
				return
			}
			res.Victim = ev.Moves[0].From
			s.c.MarkDead(res.Victim)
		})
		var err error
		if res.Report, _, err = s.c.Expand(p, s.admin, rcfg); err != nil {
			return fmt.Errorf("expand: %w", err)
		}
		if res.Victim == 0 {
			return fmt.Errorf("kill hook never fired (no moves?)")
		}
		res.SettledEpoch = s.c.MDS.CommittedEpoch()
		if res.Recovery, err = s.c.Recover(p, res.Victim, 4, cluster.RecoverInterleaved, s.admin); err != nil {
			return fmt.Errorf("recover after mid-rebalance kill: %w", err)
		}
		res.QuorumSentMsgs, res.QuorumSentBytes, res.QuorumHeldMsgs, res.QuorumHeldBytes = s.c.JournalQuorumStats()
		if _, err := ld.closeWindow(p); err != nil {
			return err
		}
		res.Stripes, err = s.finish(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RebalanceKill runs the kill-during-rebalance composition across all six
// engines: an OSD dies after the first PG's bulk copy begins, the
// transition resolves (per-PG abort/finish outcomes), the node recovers
// under the settled epoch, and the run ends scrubbed clean.
func RebalanceKill(w io.Writer, s Scale) error {
	// "rec items/KB" are the recovery cutover's journal replays (seeds +
	// degraded updates + any transition-orphaned records).
	t := s.table(w, "rebalance-kill", fmt.Sprintf("== Rebalance × failure: kill a copy source mid-expansion (+1 OSD, SSD, Ali-Cloud, RS(6,4), %d files) ==", s.Files),
		"engine\tpgs\taborted\tfinished\treconstructed\taborted MB\tmoved MB\trestored\trec items\trebuilt blks\trec KB\trecovery(ms)")
	for _, eng := range update.Names() {
		rcfg := rebalance.Config{RateBps: s.RebalanceRateBps}
		r, err := RunRebalanceKill(s.multiFileConfig(eng, 8, 64), rcfg)
		if err != nil {
			return fmt.Errorf("rebalance-kill %s: %w", eng, err)
		}
		rep := r.Report
		t.row(map[string]string{"engine": eng}, eng, []cell{
			{"pgs", "%d", len(rep.Outcomes)},
			{"aborted_pgs", "%d", rep.AbortedPGs},
			{"finished_pgs", "%d", rep.FinishedPGs},
			{"reconstructed_blocks", "%d", rep.ReconstructedBlocks},
			{"aborted_bytes", "", rep.AbortedBytes}, {"", "%.1f", float64(rep.AbortedBytes) / (1 << 20)},
			{"moved_bytes", "", rep.MovedBytes}, {"", "%.1f", float64(rep.MovedBytes) / (1 << 20)},
			{"", "%d", restoredItems(rep)},
			{"", "%d", r.Recovery.ReplayedItems}, {"", "%d", r.Recovery.Blocks},
			{"", "%d", int(r.Recovery.ReplayedBytes >> 10)},
			{"recovery_ms", "%.1f", ms(r.Recovery.TotalTime)},
			{"recovery_replayed_items", "", r.Recovery.ReplayedItems},
			{"journal_quorum_sent_msgs", "", r.QuorumSentMsgs},
			{"journal_quorum_sent_bytes", "", r.QuorumSentBytes},
			{"journal_quorum_held_bytes", "", r.QuorumHeldBytes},
		})
	}
	return t.Flush()
}

// restoredItems sums abort-path restores across a report's PG outcomes.
func restoredItems(rep *rebalance.Report) int {
	n := 0
	for _, res := range rep.Outcomes {
		n += res.RestoredItems
	}
	return n
}

// Rebalance runs the online-expansion experiment across all six engines:
// data moved vs the minimal-remap bound, the foreground IOPS dip during
// the expansion, and the cutover stall profile.
func Rebalance(w io.Writer, s Scale) error {
	rate := "unthrottled"
	if s.RebalanceRateBps > 0 {
		rate = fmt.Sprintf("%dMB/s", s.RebalanceRateBps>>20)
	}
	t := s.table(w, "rebalance", fmt.Sprintf("== Rebalance: online expansion (+%d OSD, copy rate %s, SSD, Ali-Cloud, RS(6,4), %d files) ==", s.AddOSDs, rate, s.Files),
		"engine\tmoved blks\tbound\tx bound\tmoved MB\trecopied\treplayed KB\tpgs\tmigrate(ms)\tstall(ms)\tmax stall(ms)\tbase IOPS\tduring IOPS\tdip")
	for _, eng := range update.Names() {
		rcfg := rebalance.Config{RateBps: s.RebalanceRateBps}
		r, err := RunRebalance(s.multiFileConfig(eng, 16, 64), rcfg, s.AddOSDs)
		if err != nil {
			return fmt.Errorf("rebalance %s: %w", eng, err)
		}
		var bound, movedMB float64
		var moved, recopied, replayedKB, pgs int
		var migrate, stall, maxStall time.Duration
		for _, rep := range r.Reports {
			moved += rep.MovedBlocks
			bound += rep.BoundBlocks
			movedMB += float64(rep.MovedBytes) / (1 << 20)
			recopied += rep.RecopiedBlocks
			replayedKB += int(rep.ReplayedBytes >> 10)
			pgs += rep.PGsMigrated
			migrate += rep.MigrateTime
			stall += rep.StallTime
			maxStall = max(maxStall, rep.MaxStall)
		}
		t.row(map[string]string{"engine": eng}, eng, []cell{
			{"moved_blocks", "%d", moved},
			{"bound_blocks", "%.1f", bound},
			{"actual_over_bound", "%.2fx", ratio(float64(moved), bound)},
			{"", "%.1f", movedMB},
			{"recopied_blocks", "%d", recopied},
			{"replayed_kb", "%d", replayedKB},
			{"", "%d", pgs},
			{"migrate_ms", "%.1f", ms(migrate)},
			{"stall_ms_total", "%.1f", ms(stall)},
			{"stall_ms_max", "%.1f", ms(maxStall)},
			{"base_iops", "%.0f", r.BaselineIOPS},
			{"during_iops", "%.0f", r.DuringIOPS},
			{"dip_pct", "%.0f%%", r.DipPct},
		})
	}
	return t.Flush()
}
