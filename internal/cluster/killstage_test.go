package cluster

// Kill-at-stage grid: an OSD dies at a precise stage of an online
// rebalance — staged, mid-copy, fenced, mid-replay, post-commit — in a
// precise role relative to the first migrating PG (move source, move
// destination, bystander), while a foreground workload keeps updating and
// reading. The transition must resolve every PG (abort or finish),
// recovery must then run under the settled epoch, and every byte must
// verify: reads during the run, a clean drain + scrub, and a full
// read-back at the end. The kill is injected synchronously from the
// migration driver via the transition hook, so every run is a
// deterministic repro.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/placement"
	"tsue/internal/rebalance"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// killStage names the grid's injection points in ISSUE order.
var killStages = []struct {
	name    string
	stage   PGStage
	midCopy bool // fire after the first copied block, not at stage entry
}{
	{"staged", StageStaged, false},
	{"mid-copy", StageCopying, true},
	{"fenced", StageFenced, false},
	{"mid-replay", StageReplaying, false},
	{"post-commit", StageCommitted, false},
}

var killRoles = []string{"source", "dest", "bystander"}

// pickVictim resolves the role against the triggering PG's move list.
func pickVictim(c *Cluster, ev TransEvent, role string) wire.NodeID {
	switch role {
	case "source":
		return ev.Moves[0].From
	case "dest":
		return ev.Moves[0].To
	}
	// Bystander: a live OSD in the moving block's stripe that is neither
	// endpoint of any of the PG's moves — its death must not disturb the
	// PG's migration beyond normal failure handling.
	inMoves := make(map[wire.NodeID]bool)
	for _, mv := range ev.Moves {
		inMoves[mv.From] = true
		inMoves[mv.To] = true
	}
	for _, id := range c.Placement(ev.Moves[0].Blk.StripeID()) {
		if !inMoves[id] && !c.Fabric.Down(id) {
			return id
		}
	}
	for _, osd := range c.OSDs {
		if !inMoves[osd.id] && !c.Fabric.Down(osd.id) {
			return osd.id
		}
	}
	return 0
}

// runKillAtStage is one grid cell: expand under load, kill at (stage,
// role), resolve, recover, verify byte-exact.
func runKillAtStage(t *testing.T, engine, role string, stageIdx int, seed int64) {
	t.Helper()
	ks := killStages[stageIdx]
	runExpandKill(t, engine, seed, ks.name+"/"+role, expandKill{arm: func(c *Cluster) func() wire.NodeID {
		// First event matching (stage, progress) marks the victim dead from
		// inside the migration driver.
		var victim wire.NodeID
		c.SetTransHook(func(ev TransEvent) {
			if victim != 0 || ev.Stage != ks.stage {
				return
			}
			if ks.midCopy != (ev.Copied > 0) {
				return
			}
			victim = pickVictim(c, ev, role)
			if victim == 0 {
				t.Errorf("no %s victim for pg %d", role, ev.PG)
				return
			}
			c.MarkDead(victim)
		})
		return func() wire.NodeID { return victim }
	}})
}

// expandKill is one kill-during-expansion scenario for runExpandKill.
type expandKill struct {
	// arm installs the kill before Expand and returns the node to recover,
	// read once Expand has returned (0: the kill never fired).
	arm func(c *Cluster) func() wire.NodeID
	// check, when set, runs right after Expand returns while no foreground
	// op is in flight, so content is exact. It returns false to end the
	// run there, before recovery.
	check func(p *sim.Proc, r expandRun) bool
}

// expandRun is what a scenario's check sees once Expand has returned.
type expandRun struct {
	c       *Cluster
	cl      *Client
	ino     uint64
	content []byte
	rep     *rebalance.Report
	// wErr is the writers' first error: holding them waits out every op in
	// flight, including one that exhausts its retries against a dead home
	// nothing has recovered yet.
	wErr error
}

// runExpandKill expands under load with the scenario's kill armed, checks
// that the transition resolved and committed, recovers the victim under
// the settled epoch, and verifies byte-exact.
func runExpandKill(t *testing.T, engine string, seed int64, name string, ek expandKill) {
	t.Helper()
	cfg := testConfig(engine)
	cfg.EngineOpts.UnitSize = 64 << 10 // keep TSUE overlay resident so logs follow blocks
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(seed))
		const stripes = 8
		fileSize := stripes * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		victim := ek.arm(c)

		// Foreground load: two writers over disjoint halves, verifying
		// their own regions as they go. hold parks them between ops.
		const nWriters = 2
		perRegion := fileSize / nWriters
		stop, hold := false, false
		done, busy := 0, 0
		var wErr error
		wg := sim.NewWaitGroup(c.Env)
		wg.Add(nWriters)
		for wi := 0; wi < nWriters; wi++ {
			wi := wi
			wcl := c.NewClient()
			wrng := rand.New(rand.NewSource(seed + int64(wi)*31))
			base := int64(wi) * perRegion
			c.Env.Go(fmt.Sprintf("writer%d", wi), func(wp *sim.Proc) {
				defer wg.Done()
				for j := 0; !stop && j < 100000; j++ {
					for hold {
						wp.Sleep(100 * time.Microsecond)
					}
					busy++
					err := writerOp(wp, wcl, ino, content, base, perRegion, wrng, j, &done)
					busy--
					if err != nil {
						if wErr == nil {
							wErr = fmt.Errorf("writer %d: %w", wi, err)
						}
						return
					}
				}
			})
		}
		for done < 20 && wErr == nil {
			p.Sleep(200 * time.Microsecond)
		}
		if wErr != nil {
			t.Fatal(wErr)
		}

		rep, _, err := c.Expand(p, cl, rebalance.Config{})
		if err != nil {
			t.Fatalf("expand: %v", err)
		}
		if victim() == 0 {
			t.Fatalf("kill never fired for %s", name)
		}
		if c.MDS.trans != nil {
			t.Fatal("transition still staged after Expand returned")
		}
		if got := c.MDS.CommittedEpoch(); got != 1 {
			t.Fatalf("committed epoch %d, want 1 (resolution must still commit)", got)
		}
		if len(rep.Outcomes) == 0 {
			t.Fatal("report carries no per-PG outcomes")
		}
		for _, res := range rep.Outcomes {
			if res.Outcome == rebalance.OutcomeAborted && res.ReplayedItems > 0 {
				t.Errorf("aborted pg %d reports replayed items at the new home", res.PG)
			}
		}
		if ek.check != nil {
			hold = true
			for busy > 0 {
				p.Sleep(100 * time.Microsecond)
			}
			more := ek.check(p, expandRun{c: c, cl: cl, ino: ino, content: content, rep: rep, wErr: wErr})
			hold = false
			if !more {
				stop = true
				wg.Wait(p)
				checkNoDroppedPuts(t, c)
				return
			}
		}

		// Recover the dead node under the settled epoch, foreground still
		// flowing.
		rrep, err := c.Recover(p, victim(), 2, RecoverInterleaved, cl)
		if err != nil {
			t.Fatalf("recover after %s kill: %v", name, err)
		}
		post := done
		for done < post+20 && wErr == nil {
			p.Sleep(200 * time.Microsecond)
		}
		stop = true
		wg.Wait(p)
		if wErr != nil {
			t.Fatal(wErr)
		}

		t.Logf("%s kill %s: pgs=%d aborted=%d finished=%d reconstructed=%d orphan-replayed=%d rec-blocks=%d",
			engine, name, len(rep.Outcomes), rep.AbortedPGs, rep.FinishedPGs,
			rep.ReconstructedBlocks, rrep.ReplayedItems, rrep.Blocks)

		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Scrub(); err != nil || n != stripes {
			t.Fatalf("scrub after %s kill: n=%d err=%v", name, n, err)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("content mismatch after %s kill + resolution + recovery", name)
		}
		checkNoDroppedPuts(t, c)
	})
}

// checkNoDroppedPuts: a delivery racing the kill must never crash the sim —
// post-Close queue Puts are counted drops. Today no teardown path closes a
// live delivery queue, so the counter must still be zero; a nonzero value
// here means a new race started dropping messages silently.
func checkNoDroppedPuts(t *testing.T, c *Cluster) {
	t.Helper()
	if d := c.Env.DroppedPuts(); d != 0 {
		t.Fatalf("kill teardown dropped %d queue deliveries", d)
	}
}

// writerOp is one foreground op of runExpandKill's writers: an update of
// up to 4 KiB in the writer's region (counted in done once acked), and on
// every sixth op a 2 KiB read-back checked against content.
func writerOp(p *sim.Proc, cl *Client, ino uint64, content []byte, base, region int64, rng *rand.Rand, j int, done *int) error {
	off := base + int64(rng.Intn(int(region-4096)))
	buf := make([]byte, 1+rng.Intn(4096))
	rng.Read(buf)
	if err := cl.Update(p, ino, off, buf); err != nil {
		return err
	}
	copy(content[off:], buf)
	*done++
	if j%6 != 5 {
		return nil
	}
	roff := base + int64(rng.Intn(int(region-2048)))
	got, err := cl.Read(p, ino, roff, 2048)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if !bytes.Equal(got, content[roff:roff+2048]) {
		return fmt.Errorf("read mismatch at %d", roff)
	}
	return nil
}

// TestKillDuringRebalanceGrid is the randomized grid: every engine ×
// victim role × transition stage. Under -short only TSUE runs (the other
// engines' cells run in the full suite and CI).
func TestKillDuringRebalanceGrid(t *testing.T) {
	engines := update.Names()
	if testing.Short() {
		engines = []string{"tsue"}
	}
	for _, engine := range engines {
		for _, role := range killRoles {
			for si := range killStages {
				engine, role, si := engine, role, si
				t.Run(fmt.Sprintf("%s/%s/%s", engine, role, killStages[si].name), func(t *testing.T) {
					seed := 9000 + int64(len(engine))*1000 + int64(si)*37 + int64(len(role))
					runKillAtStage(t, engine, role, si, seed)
				})
			}
		}
	}
}

// Pinned deterministic repros, one per stage (the grid's minimized seeds):
// named so a regression bisects to a stage, not a grid.

func TestKillAtStageStagedSource(t *testing.T)     { runKillAtStage(t, "tsue", "source", 0, 9101) }
func TestKillAtStageMidCopySource(t *testing.T)    { runKillAtStage(t, "parix", "source", 1, 9202) }
func TestKillAtStageFencedSource(t *testing.T)     { runKillAtStage(t, "tsue", "source", 2, 9303) }
func TestKillAtStageMidReplayDest(t *testing.T)    { runKillAtStage(t, "tsue", "dest", 3, 9404) }
func TestKillAtStagePostCommitSource(t *testing.T) { runKillAtStage(t, "cord", "source", 4, 9505) }

// Pinned deaths the stage grid does not place: inside a fenced PG's
// catch-up, two deaths inside the fence, and during overlay extraction.
// CatchUpDest and ExtractDest kill from a node's own handler
// (Fabric.SetHandler), SecondDeath from the stage hook; each ends like a
// grid cell, SecondDeath before recovery.

// TestKillAtStageCatchUpDest: a fenced PG's new home dies just before one
// of the PG's catch-up re-copies (PL re-copies the blocks that foreground
// RMWs dirtied during the bulk copy). The catch-up skips the dead
// destination and the PG aborts at the check before extraction.
func TestKillAtStageCatchUpDest(t *testing.T) {
	cd := &catchUpDest{t: t}
	runExpandKill(t, "pl", 9401, "catch-up/dest", expandKill{arm: cd.arm, check: cd.check})
}

// TestKillAtStageSecondDeath: inside the fence a PG's source dies, then a
// bystander. The first death's overlay must still reach the new home, so
// the moved data block reads exact the moment Expand returns. Neither node
// is recovered: recovering one while the other is down is a separate open
// failure (replay to a dead home).
func TestKillAtStageSecondDeath(t *testing.T) {
	sd := &secondDeath{t: t}
	runExpandKill(t, "tsue", 9601, "fenced/source+bystander", expandKill{arm: sd.arm, check: sd.check})
}

// TestKillAtStageExtractDest: a fenced PG's new home dies while the old
// home serves its MigrateLog, past the point of no return. The PG finishes
// on every engine; TSUE's extracted records are stashed for the new home's
// recovery, which replays them.
func TestKillAtStageExtractDest(t *testing.T) {
	for _, engine := range update.Names() {
		t.Run(engine, func(t *testing.T) {
			ed := &extractDest{t: t, wantStash: engine == "tsue"}
			runExpandKill(t, engine, 9704, "extract/dest", expandKill{arm: ed.arm, check: ed.check})
		})
	}
}

// catchUpDest wraps every fenced PG's new homes so the first catch-up
// re-copy that reaches one kills it: the handler marks its own node dead
// and answers as a dead node would.
type catchUpDest struct {
	t      *testing.T
	victim wire.NodeID
	pg     int
}

func (cd *catchUpDest) arm(c *Cluster) func() wire.NodeID {
	wrapped := make(map[wire.NodeID]bool)
	c.SetTransHook(func(ev TransEvent) {
		if ev.Stage != StageFenced {
			return
		}
		for _, mv := range ev.Moves {
			to := mv.To
			if wrapped[to] {
				continue
			}
			wrapped[to] = true
			h := c.OSDByID(to).handle
			err := c.Fabric.SetHandler(to, func(hp *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
				if mb, ok := m.(*wire.MigrateBlock); ok && cd.victim == 0 && !mb.Reconstruct && c.migrationFenced(mb.Blk) {
					cd.victim = to
					cd.pg = c.MDS.epochs.At(c.MDS.trans.next).PGOf(mb.Blk.StripeID())
					c.MarkDead(to)
					return &wire.Ack{Err: netsim.ErrNodeDown}
				}
				return h(hp, from, m)
			})
			if err != nil {
				cd.t.Error(err)
			}
		}
	})
	return func() wire.NodeID { return cd.victim }
}

func (cd *catchUpDest) check(_ *sim.Proc, r expandRun) bool {
	if o := outcomeOf(r.rep, cd.pg); o != rebalance.OutcomeAborted {
		cd.t.Errorf("pg %d: outcome %v after its new home died in the catch-up, want aborted", cd.pg, o)
	}
	return true
}

// secondDeath kills, at the first fenced PG with a moving data block, that
// block's source and then a bystander of the PG.
type secondDeath struct {
	t              *testing.T
	src, bystander wire.NodeID
	blks           []wire.BlockID // the PG's data blocks moving off src
}

func (sd *secondDeath) arm(c *Cluster) func() wire.NodeID {
	c.SetTransHook(func(ev TransEvent) {
		if sd.src != 0 || ev.Stage != StageFenced {
			return
		}
		for _, mv := range ev.Moves {
			if int(mv.Blk.Index) < c.Cfg.K && (sd.src == 0 || mv.From == sd.src) {
				sd.src = mv.From
				sd.blks = append(sd.blks, mv.Blk)
			}
		}
		if sd.src == 0 {
			return
		}
		c.MarkDead(sd.src)
		sd.bystander = pickVictim(c, ev, "bystander")
		c.MarkDead(sd.bystander)
	})
	return func() wire.NodeID { return sd.src }
}

// check reads every moved data block back at its new home and ends the
// run. With both nodes down and neither recovered, a held writer may have
// run out of retries against one of them.
func (sd *secondDeath) check(p *sim.Proc, r expandRun) bool {
	if r.wErr != nil && !errors.Is(r.wErr, netsim.ErrNodeDown) {
		sd.t.Fatal(r.wErr)
	}
	bs := r.c.Cfg.BlockSize
	for _, blk := range sd.blks {
		off := int64(blk.Stripe)*r.c.StripeWidth() + int64(blk.Index)*bs
		got, err := r.cl.Read(p, r.ino, off, bs)
		if err != nil {
			sd.t.Fatalf("read moved %v: %v", blk, err)
		}
		if !bytes.Equal(got, r.content[off:off+bs]) {
			sd.t.Errorf("moved %v reads stale at its new home (source %d died, then %d)", blk, sd.src, sd.bystander)
		}
	}
	return false
}

// extractDest kills the first fenced PG's first new home while that move's
// old home serves the MigrateLog.
type extractDest struct {
	t         *testing.T
	wantStash bool // the engine extracts overlay records to stash
	victim    wire.NodeID
	pg        int
}

func (ed *extractDest) arm(c *Cluster) func() wire.NodeID {
	armed := false
	c.SetTransHook(func(ev TransEvent) {
		if armed || ev.Stage != StageFenced {
			return
		}
		armed = true
		ed.pg = ev.PG
		mv := ev.Moves[0]
		h := c.OSDByID(mv.From).handle
		err := c.Fabric.SetHandler(mv.From, func(hp *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			if ml, ok := m.(*wire.MigrateLog); ok && ml.Blk == mv.Blk && ed.victim == 0 {
				ed.victim = mv.To
				c.MarkDead(mv.To)
			}
			return h(hp, from, m)
		})
		if err != nil {
			ed.t.Error(err)
		}
	})
	return func() wire.NodeID { return ed.victim }
}

// check wants the PG finished and, for an engine that extracts overlay,
// its records parked for the dead new home.
func (ed *extractDest) check(_ *sim.Proc, r expandRun) bool {
	if o := outcomeOf(r.rep, ed.pg); o != rebalance.OutcomeFinished {
		ed.t.Errorf("pg %d: outcome %v after its new home died during extraction, want finished", ed.pg, o)
	}
	if ed.wantStash && len(r.c.orphans[ed.victim]) == 0 {
		ed.t.Errorf("no extracted record stashed for dead new home %d", ed.victim)
	}
	return true
}

// outcomeOf returns a PG's outcome in a migration report.
func outcomeOf(rep *rebalance.Report, pg int) rebalance.Outcome {
	for _, res := range rep.Outcomes {
		if res.PG == pg {
			return res.Outcome
		}
	}
	return -1
}

// TestKillResolvesTransition covers the blocking Kill entry point: a
// concurrent process kills a copy source mid-migration and must observe
// the transition resolve to a committed epoch before Recover runs.
func TestKillResolvesTransition(t *testing.T) {
	cfg := testConfig("tsue")
	cfg.EngineOpts.UnitSize = 64 << 10
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(77))
		fileSize := 8 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		var victim wire.NodeID
		trigger := false
		c.SetTransHook(func(ev TransEvent) {
			if victim == 0 && ev.Stage == StageCopying && ev.Copied > 0 {
				victim = ev.Moves[0].From
				trigger = true
			}
		})
		var krep *KillReport
		var kerr error
		admin := c.NewClient()
		c.Env.Go("killer", func(kp *sim.Proc) {
			for !trigger {
				kp.Sleep(100 * time.Microsecond)
			}
			krep, kerr = c.Kill(kp, victim, admin)
		})
		// Throttle the copy so the killer proc gets scheduled mid-migration.
		rep, _, err := c.Expand(p, cl, rebalance.Config{RateBps: 8 << 20})
		if err != nil {
			t.Fatalf("expand: %v", err)
		}
		for krep == nil && kerr == nil {
			p.Sleep(100 * time.Microsecond)
		}
		if kerr != nil {
			t.Fatalf("kill: %v", kerr)
		}
		if !krep.TransitionResolved || krep.SettledEpoch != 1 {
			t.Fatalf("kill report %+v, want transition resolved at epoch 1", krep)
		}
		if rep.AbortedPGs+rep.FinishedPGs == 0 {
			t.Fatal("no PG recorded an abort/finish resolution")
		}
		if _, err := c.Recover(p, victim, 2, RecoverInterleaved, cl); err != nil {
			t.Fatalf("recover under settled epoch: %v", err)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch after Kill + Recover")
		}
	})
}

// TestSentinelErrorsNotRetryable pins the satellite bugfix: the fatal
// control-plane sentinels must be distinguishable via errors.Is AND must
// never be classified as retryable routing bounces (the retryable bounces
// themselves are pinned across hops by TestRouteBouncesCrossHops).
func TestSentinelErrorsNotRetryable(t *testing.T) {
	cfg := testConfig("tsue")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		fileSize := 2 * c.StripeWidth()
		content := make([]byte, fileSize)
		rand.New(rand.NewSource(3)).Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		victim := c.Placement(wire.StripeID{Ino: ino, Stripe: 0})[0]
		c.Fabric.SetDown(victim, true)
		if _, err := c.registerDegraded(p, victim, cl); err != nil {
			t.Fatal(err)
		}
		_, _, err = c.Expand(p, cl, rebalance.Config{})
		if !errors.Is(err, ErrClusterDegraded) {
			t.Fatalf("Expand while degraded: got %v, want ErrClusterDegraded", err)
		}
		if retryableRouteErr(err) {
			t.Fatal("ErrClusterDegraded classified retryable")
		}
		c.unregisterDegraded(victim)
		c.Fabric.SetDown(victim, false)

		osd, err := c.AddOSDNode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.stageEpoch(p, cl, &wire.EpochUpdate{Kind: wire.EpochStageAddOSD, OSD: osd.id}); err != nil {
			t.Fatal(err)
		}
		_, err = c.Recover(p, victim, 2, RecoverInterleaved, cl)
		if !errors.Is(err, ErrTransitionInProgress) {
			t.Fatalf("Recover mid-transition: got %v, want ErrTransitionInProgress", err)
		}
		if retryableRouteErr(err) {
			t.Fatal("ErrTransitionInProgress classified retryable")
		}
		_, _, err = c.Expand(p, cl, rebalance.Config{})
		if !errors.Is(err, ErrTransitionInProgress) {
			t.Fatalf("racing Expand: got %v, want ErrTransitionInProgress", err)
		}
		// Settle the staged transition so the run tears down clean.
		if _, err := c.migrate(p, cl, c.MDS.trans.next, rebalance.Config{}); err != nil {
			t.Fatal(err)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRouteBouncesCrossHops sends requests that a real OSD handler bounces,
// over the fabric, and checks what the client sees: every retryable bounce
// — stale epoch, cutover fence, degraded route gone, node down, partition,
// checksum reject — arrives as an error that errors.Is matches against its
// sentinel and that the client retries. The fence bounce also crosses two
// hops (client → surrogate DegradedRead → home ReadBlock), wrapped once on
// the way. The fatal control-plane sentinels stay non-retryable, bare or
// wrapped.
func TestRouteBouncesCrossHops(t *testing.T) {
	run(t, testConfig("tsue"), func(p *sim.Proc, c *Cluster, cl *Client) {
		fileSize := c.StripeWidth()
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, make([]byte, fileSize)); err != nil {
			t.Fatal(err)
		}
		s := wire.StripeID{Ino: ino}
		osds := c.Placement(s)
		blk := wire.BlockID{Ino: ino}
		home, peer, puller := osds[0], osds[1], osds[2]
		data := []byte("two-stage update")
		epoch := c.MDS.committed
		bounce := func(name string, to wire.NodeID, req wire.Msg, want error) error {
			t.Helper()
			err := wire.AckErr(c.Fabric.Call(p, cl.id, to, req))
			if !errors.Is(err, want) {
				t.Errorf("%s: got %v, want errors.Is %v", name, err, want)
			}
			if !cl.retry(p, blk, 0, err) {
				t.Errorf("%s: %v not retried by the client", name, err)
			}
			return err
		}

		bounce("stale-epoch read", home, &wire.ReadBlock{Blk: blk, Size: 64, Epoch: epoch + 7}, errStaleEpoch)
		bounce("stale-epoch update", home, &wire.Update{Blk: blk, Data: data, Epoch: epoch + 7, Sum: wire.Checksum(data)}, errStaleEpoch)
		bounce("checksum reject", home, &wire.Update{Blk: blk, Data: data, Epoch: epoch, Sum: wire.Checksum(data) ^ 1}, wire.ErrChecksum)
		bounce("degraded read, route gone", home, &wire.DegradedRead{Failed: peer, Blk: blk, Size: 64}, errDegradedGone)
		bounce("degraded update, route gone", home, &wire.DegradedUpdate{Failed: peer, Blk: blk, Data: data, Sum: wire.Checksum(data)}, errDegradedGone)
		pull := &wire.MigrateBlock{Blk: wire.BlockID{Ino: ino, Index: 1}, From: peer}
		c.Fabric.SetDown(peer, true)
		bounce("migrate pull from a dead node", puller, pull, netsim.ErrNodeDown)
		c.Fabric.SetDown(peer, false)
		c.Fabric.Partition(puller, peer, true)
		bounce("migrate pull over a cut link", puller, pull, netsim.ErrPartitioned)
		c.Fabric.Partition(puller, peer, false)

		// The cutover fence: stage an epoch and fence the stripe's PG.
		osd, err := c.AddOSDNode()
		if err != nil {
			t.Fatal(err)
		}
		next, err := c.stageEpoch(p, cl, &wire.EpochUpdate{Kind: wire.EpochStageAddOSD, OSD: osd.id})
		if err != nil {
			t.Fatal(err)
		}
		pg := c.MDS.epochs.At(next).PGOf(s)
		c.MDS.setPGStage(pg, StageFenced)
		bounce("read inside the fence", home, &wire.ReadBlock{Blk: blk, Size: 64, Epoch: epoch}, errMigrating)
		// Two hops: the surrogate forwards a live block's degraded read to
		// its home, which bounces it from inside the fence.
		c.Fabric.SetDown(peer, true)
		st, err := c.registerDegraded(p, peer, cl)
		if err != nil {
			t.Fatal(err)
		}
		sur := st.surr[c.PG(s)]
		err = bounce("degraded read forwarded into the fence", sur, &wire.DegradedRead{Failed: peer, Blk: blk, Size: 64}, errMigrating)
		if want := fmt.Sprintf("degraded read fwd %v: %v", blk, errMigrating); err == nil || err.Error() != want {
			t.Errorf("two-hop bounce text %v, want %q", err, want)
		}
		c.unregisterDegraded(peer)
		c.Fabric.SetDown(peer, false)
		c.MDS.setPGStage(pg, StageStaged)

		for _, fatal := range []error{ErrSurrogateLost, ErrClusterDegraded, ErrTransitionInProgress} {
			for _, err := range []error{fatal, fmt.Errorf("read %v: %w", blk, fatal)} {
				if cl.retry(p, blk, 0, err) {
					t.Errorf("%v classified retryable", err)
				}
			}
		}
		if _, err := c.migrate(p, cl, next, rebalance.Config{}); err != nil {
			t.Fatal(err)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPGStageLifecycle: mid-transition the MDS reports a fenced PG's
// stage; after Expand commits it reports no transition and the settled
// epoch, and refuses a commit with nothing staged and an unknown epoch op
// without moving that epoch.
func TestPGStageLifecycle(t *testing.T) {
	cfg := testConfig("tsue")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		fileSize := 4 * c.StripeWidth()
		content := make([]byte, fileSize)
		rand.New(rand.NewSource(5)).Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		sawStages := false
		c.SetTransHook(func(ev TransEvent) {
			if sawStages || ev.Stage != StageFenced {
				return
			}
			st, ok := c.MDS.PGStageOf(ev.PG)
			if !ok || st != StageFenced {
				t.Errorf("PGStageOf(%d) = %v,%v mid-fence", ev.PG, st, ok)
			}
			sawStages = true
		})
		if _, _, err := c.Expand(p, cl, rebalance.Config{}); err != nil {
			t.Fatal(err)
		}
		if !sawStages {
			t.Fatal("fence stage never observed")
		}
		if c.MDS.trans != nil {
			t.Fatal("transition still in flight after Expand")
		}
		if got := c.MDS.CommittedEpoch(); got != 1 {
			t.Fatalf("committed epoch %d after Expand, want 1", got)
		}
		for _, req := range []*wire.EpochUpdate{{Kind: wire.EpochCommit}, {}} {
			if _, err := askMDS[*wire.EpochResp](p, cl, req, "epoch update"); err == nil {
				t.Fatalf("EpochUpdate kind %d accepted with nothing staged", req.Kind)
			}
			if got := c.MDS.CommittedEpoch(); got != 1 {
				t.Fatalf("committed epoch %d after refused kind %d, want 1", got, req.Kind)
			}
		}
	})
}

// TestMDSRefusesCrossedTerminals pins the guard that keeps a PG's two
// terminals from racing: the MDS refuses PGCutover for an aborted PG and
// PGAbort for one that has cut over, and leaves both stages as they were.
func TestMDSRefusesCrossedTerminals(t *testing.T) {
	run(t, testConfig("tsue"), func(p *sim.Proc, c *Cluster, cl *Client) {
		osd, err := c.AddOSDNode()
		if err != nil {
			t.Fatal(err)
		}
		next, err := c.stageEpoch(p, cl, &wire.EpochUpdate{Kind: wire.EpochStageAddOSD, OSD: osd.id})
		if err != nil {
			t.Fatal(err)
		}
		ask := func(req wire.Msg) error { return wire.AckErr(c.Fabric.Call(p, cl.id, mdsID, req)) }
		const aborted, flipped = 1, 2
		c.MDS.setPGStage(aborted, StageFenced)
		c.MDS.setPGStage(flipped, StageFenced)
		if err := ask(&wire.PGAbort{PG: aborted, Epoch: next}); err != nil {
			t.Fatalf("abort of a fenced pg: %v", err)
		}
		if err := ask(&wire.PGCutover{PG: flipped, Epoch: next}); err != nil {
			t.Fatalf("cutover of a fenced pg: %v", err)
		}
		if err := ask(&wire.PGCutover{PG: aborted, Epoch: next}); err == nil {
			t.Error("cutover of an aborted pg accepted")
		}
		if err := ask(&wire.PGAbort{PG: flipped, Epoch: next}); err == nil {
			t.Error("abort of a cut-over pg accepted")
		}
		for _, w := range []struct {
			pg   int
			want PGStage
		}{{aborted, StageAborted}, {flipped, StageReplaying}} {
			if got, _ := c.MDS.PGStageOf(w.pg); got != w.want {
				t.Errorf("pg %d stage %v after the refused request, want %v", w.pg, got, w.want)
			}
		}
	})
}

// TestPGRoleSeesEveryDeath: a PG's source or destination that died before
// another node still counts; the mover has no remembered "last death".
func TestPGRoleSeesEveryDeath(t *testing.T) {
	c := MustNew(testConfig("tsue"))
	defer c.Env.Close()
	pg := rebalance.PGMoves{PG: 1, Moves: []placement.Move{{From: 1, To: 2}, {From: 3, To: 4}}}
	for _, tc := range []struct {
		dead     []wire.NodeID
		src, dst bool
	}{
		{nil, false, false},
		{[]wire.NodeID{5}, false, false},
		{[]wire.NodeID{3, 5}, true, false},
		{[]wire.NodeID{2, 5}, false, true},
	} {
		for _, osd := range c.OSDs {
			c.Fabric.SetDown(osd.id, false)
		}
		for _, id := range tc.dead {
			c.MarkDead(id)
		}
		if src, dst := c.pgRole(pg); src != tc.src || dst != tc.dst {
			t.Errorf("deaths %v: pgRole = %v,%v, want %v,%v", tc.dead, src, dst, tc.src, tc.dst)
		}
	}
}
