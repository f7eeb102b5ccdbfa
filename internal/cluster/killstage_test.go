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

		// Arm the kill: first event matching (stage, progress) marks the
		// victim dead from inside the migration driver.
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

		// Foreground load: two writers over disjoint halves, verifying
		// their own regions as they go.
		const nWriters = 2
		perRegion := fileSize / nWriters
		stop := false
		done := 0
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
					off := base + int64(wrng.Intn(int(perRegion-4096)))
					n := 1 + wrng.Intn(4096)
					buf := make([]byte, n)
					wrng.Read(buf)
					if err := wcl.Update(wp, ino, off, buf); err != nil {
						if wErr == nil {
							wErr = fmt.Errorf("writer %d: %w", wi, err)
						}
						return
					}
					copy(content[off:], buf)
					done++
					if j%6 == 5 {
						roff := base + int64(wrng.Intn(int(perRegion-2048)))
						got, err := wcl.Read(wp, ino, roff, 2048)
						if err != nil {
							if wErr == nil {
								wErr = fmt.Errorf("writer %d read: %w", wi, err)
							}
							return
						}
						if !bytes.Equal(got, content[roff:roff+2048]) {
							if wErr == nil {
								wErr = fmt.Errorf("writer %d: read mismatch at %d", wi, roff)
							}
							return
						}
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

		rep, newID, err := c.Expand(p, cl, rebalance.Config{})
		if err != nil {
			t.Fatalf("expand: %v", err)
		}
		if victim == 0 {
			t.Fatalf("kill hook never fired for stage %s", ks.name)
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

		// Recover the dead node under the settled epoch, foreground still
		// flowing.
		rrep, err := c.Recover(p, victim, 2, RecoverInterleaved, cl)
		if err != nil {
			t.Fatalf("recover after %s/%s kill: %v", ks.name, role, err)
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

		t.Logf("%s kill %s@%s: pgs=%d aborted=%d finished=%d reconstructed=%d orphan-replayed=%d rec-blocks=%d",
			engine, role, ks.name, len(rep.Outcomes), rep.AbortedPGs, rep.FinishedPGs,
			rep.ReconstructedBlocks, rrep.ReplayedItems, rrep.Blocks)

		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Scrub(); err != nil || n != stripes {
			t.Fatalf("scrub after %s/%s kill: n=%d err=%v", ks.name, role, n, err)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("content mismatch after %s/%s kill + resolution + recovery", ks.name, role)
		}
		// A delivery racing the kill must never crash the sim — post-Close
		// queue Puts are counted drops. Today no teardown path closes a
		// live delivery queue, so the counter must still be zero; a nonzero
		// value here means a new race started dropping messages silently.
		if d := c.Env.DroppedPuts(); d != 0 {
			t.Fatalf("kill teardown dropped %d queue deliveries", d)
		}
		_ = newID
	})
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
		c.MDS.trans.fencing[pg] = true
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
		c.MDS.trans.fencing[pg] = false

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
// epoch.
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
	})
}
