package harness

// The degraded multi-death experiment (beyond the paper's single-failure
// figures): open a degraded window, then chain further deaths INSIDE it —
// first a journal quorum holder, then the journal-holding surrogate — with
// acked degraded updates interleaved between the kills. It measures what
// the quorum-replicated journal design costs (replication messages/bytes
// per acked append) and what it buys (promotion + read-repair resolving
// every death without stranding an acked update), ending drained and
// scrubbed clean.

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// MultiKillResult captures one degraded multi-death run.
type MultiKillResult struct {
	Cfg RunConfig
	// Deaths is the number of nodes killed (1 = failed node only,
	// 2 = +surrogate, 3 = +quorum holder before the surrogate).
	Deaths int
	// Failed, Surr, Holder are the injected deaths (0 when the scenario's
	// death count does not reach that role).
	Failed, Surr, Holder wire.NodeID
	// Appends counts acked degraded updates across the append phases.
	Appends int
	// Kill is the surrogate-death report: journal promotions and
	// read-repaired items.
	Kill *cluster.KillReport
	// Quorum* aggregate the journal replication traffic: Sent counts acked
	// JournalReplica messages/bytes surrogates pushed to their holder sets,
	// Held counts replica records/bytes the holders retain.
	QuorumSentMsgs, QuorumSentBytes int64
	QuorumHeldMsgs, QuorumHeldBytes int64
	// RecoverTotal sums recovery time across every dead node;
	// ReplayedItems counts journal records replayed at the cutovers.
	RecoverTotal  time.Duration
	ReplayedItems int
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int
}

// RunDegradedMultiKill preloads a volume, opens a degraded window for the
// most-loaded OSD, and drives acked degraded updates to its lost ranges
// while killing up to deaths-1 further nodes at fixed points: the first
// quorum holder of the busiest surrogate (deaths >= 3), then that
// surrogate itself (deaths >= 2). All dead nodes are then recovered —
// journal-less casualties first, the window owner's replay last — and the
// run ends with a drain and a full scrub.
func RunDegradedMultiKill(cfg RunConfig, deaths int) (*MultiKillResult, error) {
	if deaths < 1 || deaths > cfg.M {
		return nil, fmt.Errorf("harness: %d deaths exceed the RS(%d,%d) parity budget", deaths, cfg.K, cfg.M)
	}
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	c, admin := s.c, s.admin
	cl := c.NewClient() // created before the harness proc is spawned
	res := &MultiKillResult{Cfg: cfg, Deaths: deaths}
	err = s.run(func(p *sim.Proc) error {
		// Settle the preload's own logs and restart the counters, so the
		// quorum traffic below is the degraded appends' alone.
		if err := s.drain(p); err != nil {
			return err
		}
		c.ResetStats()

		// Fail the most-loaded OSD and open its degraded window.
		failed := mostLoaded(c, 0)
		if err := c.BeginDegraded(p, failed, admin); err != nil {
			return fmt.Errorf("begin degraded: %w", err)
		}
		res.Failed = failed

		// The failed node's lost DATA ranges — the offsets whose updates
		// route through the surrogate journals.
		sw := c.StripeWidth()
		ino := s.inos[0]
		var lost []int64
		for st := uint32(0); int64(st)*sw < s.perFile; st++ {
			osds := c.Placement(wire.StripeID{Ino: ino, Stripe: st})
			for idx := 0; idx < c.Cfg.K; idx++ {
				if osds[idx] == failed {
					lost = append(lost, int64(st)*sw+int64(idx)*cfg.BlockSize)
				}
			}
		}
		if len(lost) == 0 {
			return fmt.Errorf("most-loaded OSD %d holds no data blocks of vol0", failed)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 4243))
		span := int(cfg.BlockSize - 4096)
		appends := func(n int) error {
			buf := make([]byte, 4096)
			for i := 0; i < n; i++ {
				rng.Read(buf)
				off := lost[rng.Intn(len(lost))] + int64(rng.Intn(span))
				if err := cl.Update(p, ino, off, buf); err != nil {
					return fmt.Errorf("degraded append %d: %w", i, err)
				}
				res.Appends++
			}
			return nil
		}
		phase := max(cfg.Ops/12, 20)
		if err := appends(phase); err != nil {
			return err
		}

		if deaths >= 2 {
			// Busiest surrogate by journal bytes appended.
			var surr wire.NodeID
			var bmost int64 = -1
			jb := c.JournalBytesPerOSD()
			for _, id := range c.SurrogatesOf(failed) {
				if jb[id] > bmost {
					bmost, surr = jb[id], id
				}
			}
			if surr == 0 {
				return fmt.Errorf("no surrogate journaled anything after %d appends", res.Appends)
			}
			res.Surr = surr
			if deaths >= 3 {
				holders := c.JournalHoldersOf(failed, surr)
				if len(holders) < 2 {
					return fmt.Errorf("surrogate %d has no holder quorum to kill from (%v)", surr, holders)
				}
				res.Holder = holders[0]
				if _, err := c.Kill(p, res.Holder, admin); err != nil {
					return fmt.Errorf("kill holder %d: %w", res.Holder, err)
				}
				if err := appends(phase); err != nil {
					return err
				}
			}
			krep, err := c.Kill(p, surr, admin)
			if err != nil {
				return fmt.Errorf("kill surrogate %d: %w", surr, err)
			}
			res.Kill = krep
			if err := appends(phase); err != nil {
				return err
			}
		}

		res.QuorumSentMsgs, res.QuorumSentBytes, res.QuorumHeldMsgs, res.QuorumHeldBytes = c.JournalQuorumStats()

		// Journal-less casualties rebuild first; the window owner's cutover
		// replay runs last, onto fully-live stripes (the synchronous-parity
		// engines replay full engine writes across each stripe).
		recover := func(id wire.NodeID) error {
			rep, err := c.Recover(p, id, 4, cluster.RecoverInterleaved, admin)
			if err != nil {
				return fmt.Errorf("recover %d: %w", id, err)
			}
			res.RecoverTotal += rep.TotalTime
			res.ReplayedItems += rep.ReplayedRecords
			return nil
		}
		for _, id := range []wire.NodeID{res.Holder, res.Surr, failed} {
			if id == 0 {
				continue
			}
			if err := recover(id); err != nil {
				return err
			}
		}
		var err error
		res.Stripes, err = s.finish(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// DegradedMultiKill runs the multi-death scenario across all six engines
// and every death count up to 3, reporting quorum replication traffic,
// promotion/read-repair work and total recovery time.
func DegradedMultiKill(w io.Writer, s Scale) error {
	t := s.table(w, "degraded-multikill", "== Degraded × multi-death: quorum journals under chained kills (SSD, RS(6,4)) ==",
		"engine\tdeaths\tappends\tq-sent msgs\tq-sent KB\tq-held msgs\tq-held KB\tpromoted\trepaired\treplayed\trecover(ms)\tstripes")
	for _, eng := range update.Names() {
		for _, m := range []int{1, 2, 3} {
			r, err := RunDegradedMultiKill(s.config(eng, "ali", 16), m)
			if err != nil {
				return fmt.Errorf("degraded-multikill %s m=%d: %w", eng, m, err)
			}
			kill := r.Kill
			if kill == nil {
				kill = &cluster.KillReport{}
			}
			deaths := fmt.Sprintf("%d", m)
			t.row(map[string]string{"engine": eng, "deaths": deaths}, eng+"\t"+deaths, []cell{
				{"appends", "%d", r.Appends},
				{"quorum_sent_msgs", "%d", r.QuorumSentMsgs},
				{"quorum_sent_bytes", "", r.QuorumSentBytes}, {"", "%.1f", float64(r.QuorumSentBytes) / 1024},
				{"quorum_held_msgs", "%d", r.QuorumHeldMsgs},
				{"quorum_held_bytes", "", r.QuorumHeldBytes}, {"", "%.1f", float64(r.QuorumHeldBytes) / 1024},
				{"promoted_journals", "%d", kill.PromotedJournals},
				{"repaired_items", "%d", kill.RepairedItems},
				{"replayed_items", "%d", r.ReplayedItems},
				{"recover_ms", "%.1f", ms(r.RecoverTotal)},
				{"", "%d", r.Stripes},
			})
		}
	}
	return t.Flush()
}
