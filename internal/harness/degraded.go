package harness

// The degraded experiment (beyond the paper's figures, after its §4.2
// recovery discussion and Fig. 8b): fail an OSD *while* a foreground update
// workload is running and recover it under each protocol, measuring how
// long recovery takes, how far foreground IOPS dip while it runs — the
// Rashmi et al. observation that recovery traffic competes with foreground
// I/O on the same NICs — and how many bytes each scheme must replay from
// replicated logs.

import (
	"fmt"
	"io"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// DegradedResult captures one degraded-mode recovery run.
type DegradedResult struct {
	Cfg RunConfig
	// Mode is the recovery protocol used.
	Mode cluster.RecoverMode
	// Report is the cluster's recovery report (rebuild/settle/replay times,
	// replayed bytes, reconstruction bandwidth).
	Report *cluster.RecoveryReport
	// Window is the foreground load from failure injection to recovery
	// completion: the IOPS dip and the degraded-read latencies.
	Window
	// JournalBytes is surrogate-journal bytes appended per OSD during the
	// degraded window (the placement experiment's surrogate-load spread).
	JournalBytes map[wire.NodeID]int64
	// Quorum* aggregate journal quorum replication traffic during the
	// window: Sent counts acked JournalReplica messages/bytes the
	// surrogates pushed to their holder sets, Held what the holders retain.
	QuorumSentMsgs, QuorumSentBytes int64
	QuorumHeldMsgs, QuorumHeldBytes int64
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int
}

// RunDegraded preloads a volume, runs a continuous foreground update
// workload plus a small pool of reader probes, fails the most-loaded OSD a
// third of the way through, and recovers it under the given mode while the
// workload keeps issuing updates (which block at the gate or route through
// the surrogate journal, depending on the mode). The run ends with a drain
// and a full scrub.
func RunDegraded(cfg RunConfig, mode cluster.RecoverMode) (*DegradedResult, error) {
	res := &DegradedResult{Cfg: cfg, Mode: mode}
	err := runSession(cfg, func(s *session, p *sim.Proc) error {
		ld := s.startLoad(p, max(cfg.Clients/4, 2), 500*time.Microsecond)
		if err := ld.warm(p); err != nil {
			return err
		}
		var err error
		if res.Report, err = s.c.Recover(p, mostLoaded(s.c, 0), 8, mode, s.admin); err != nil {
			return fmt.Errorf("recover (%s): %w", mode, err)
		}
		if res.Window, err = ld.closeWindow(p); err != nil {
			return err
		}
		res.JournalBytes = s.c.JournalBytesPerOSD()
		res.QuorumSentMsgs, res.QuorumSentBytes, res.QuorumHeldMsgs, res.QuorumHeldBytes = s.c.JournalQuorumStats()
		res.Stripes, err = s.finish(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// degradedModes is the experiment's protocol sweep.
func degradedModes() []cluster.RecoverMode {
	return []cluster.RecoverMode{
		cluster.RecoverDrainFirst,
		cluster.RecoverLogReplay,
		cluster.RecoverInterleaved,
	}
}

// Degraded runs the degraded-mode recovery experiment: every trace × every
// engine × every recovery protocol under a continuous foreground update
// load plus reader probes, reporting recovery time, the foreground IOPS
// dip, replayed log bytes, AND the per-trace degraded-read latency
// percentiles (p50/p95/p99 of reads issued inside the recovery window) —
// the Fig. 8b comparison extended with the update/failure overlap the
// paper's log-reliability argument is really about, completed with the
// ROADMAP's trace-latency distribution item. "barrier" is the log barrier
// (RecoveryReport.DrainTime) and "gated" the time client updates were
// fenced; for interleaved recovery the barrier's settle runs ungated, so
// gated counts only the route registration and the cutover, and the
// rebuild runs beside the settle: its time counts from the registration's
// end, so barrier and rebuild overlap and their sum exceeds the recovery
// time. "rd n" is the number of window reads the percentiles come from:
// over about a hundred, p99 is one of the two slowest reads, not a tail. A
// second table splits each run's barrier and cutover into their phases and
// sets the journal records the cutover took against the extents it
// replayed.
func Degraded(w io.Writer, s Scale) error {
	t := s.table(w, "degraded", "== Degraded: recovery under foreground load (SSD, RS(6,4)); window read latency p50/p95/p99 over rd n reads; interleaved rebuild(ms) counts from the registration's end and overlaps the settle ==",
		"trace\tengine\tmode\trecover(ms)\tbarrier(ms)\trebuild(ms)\treplay(ms)\tgated(ms)\treplayed(KB)\trebuild(MB/s)\tbase IOPS\tduring IOPS\tdip\trd p50(ms)\trd p95(ms)\trd p99(ms)\trd n\trd err")
	var phases []phaseRow
	for _, tr := range []string{"ali", "ten"} {
		for _, eng := range update.Names() {
			for _, mode := range degradedModes() {
				r, err := RunDegraded(s.config(eng, tr, 16), mode)
				if err != nil {
					return fmt.Errorf("degraded %s %s %s: %w", tr, eng, mode, err)
				}
				rep := r.Report
				labels := map[string]string{"trace": tr, "engine": eng, "mode": mode.String()}
				lead := tr + "\t" + eng + "\t" + mode.String()
				phases = append(phases, phaseRow{labels, lead, rep})
				t.row(labels, lead, []cell{
					{"recover_ms", "%.1f", ms(rep.TotalTime)},
					{"barrier_ms", "%.1f", ms(rep.DrainTime)}, {"rebuild_ms", "%.1f", ms(rep.RebuildTime)},
					{"replay_ms", "%.1f", ms(rep.ReplayTime)}, {"gated_ms", "%.1f", ms(rep.GatedTime)},
					{"replayed_kb", "%.1f", float64(rep.ReplayedBytes) / 1024},
					{"rebuild_mbps", "%.1f", rep.BandwidthBps / (1 << 20)},
					{"base_iops", "%.0f", r.BaselineIOPS}, {"during_iops", "%.0f", r.DuringIOPS},
					{"dip_pct", "%.0f%%", r.DipPct},
					{"read_p50_ms", "%.2f", ms(r.ReadP(0.50))},
					{"read_p95_ms", "%.2f", ms(r.ReadP(0.95))},
					{"read_p99_ms", "%.2f", ms(r.ReadP(0.99))},
					{"read_n", "%d", len(r.ReadLats)},
					{"read_errs", "%d", r.ReadErrs},
					{"journal_quorum_sent_msgs", "", r.QuorumSentMsgs},
					{"journal_quorum_sent_bytes", "", r.QuorumSentBytes},
					{"journal_quorum_held_bytes", "", r.QuorumHeldBytes},
				})
			}
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}
	return degradedPhases(w, s, phases)
}

// phaseRow is one degraded run's row of the phases table.
type phaseRow struct {
	labels map[string]string
	lead   string
	rep    *cluster.RecoveryReport
}

// degradedPhases prints the recovery phases of every degraded run: fence 1
// (its wait for in-flight ops and registerDegraded), the settle (SettleAll;
// drain-first: DrainAll), the rebuild, and fence 2 (its wait, then the
// replay of the cutover's critical journal by its surrogate), with the journal
// records replayed against their merged extents, in total and for the
// largest journal. Drain-first and log-replay hold the gate through the
// settle; interleaved recovery reopens it before the settle, fences only
// degraded reads of lost blocks, each until the settle has merged its byte
// range, and rebuilds beside the settle, each block once its stripe has
// settled.
func degradedPhases(w io.Writer, s Scale, rows []phaseRow) error {
	t := s.table(w, "degraded", "== Degraded: recovery phases (ms); journal records vs merged extents replayed ==",
		"trace\tengine\tmode\tfence1 wait\tregister\tsettle\trebuild\tfence2 wait\treplay\trecords\textents\tmax journal")
	for _, r := range rows {
		rep := r.rep
		t.row(r.labels, r.lead, []cell{
			{"fence1_wait_ms", "%.2f", ms(rep.Fence1Wait)},
			{"register_ms", "%.2f", ms(rep.RegisterTime)},
			{"settle_ms", "%.2f", ms(rep.SettleTime)},
			{"", "%.2f", ms(rep.RebuildTime)},
			{"fence2_wait_ms", "%.2f", ms(rep.Fence2Wait)},
			{"journal_replay_ms", "%.2f", ms(rep.JournalReplayTime)},
			{"replayed_records", "%d", rep.ReplayedRecords},
			{"replayed_extents", "%d", rep.ReplayedItems},
			{"", "%s", fmt.Sprintf("%d/%d", rep.MaxJournalRecords, rep.MaxJournalExtents)},
			{"max_journal_records", "", rep.MaxJournalRecords},
			{"max_journal_extents", "", rep.MaxJournalExtents},
		})
	}
	return t.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
