package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/rebalance"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// TestExpandUnderLoad is the subsystem's acceptance test: add an OSD in the
// middle of a randomized update/read workload for every engine, and require
// (a) byte-exact reads throughout the migration and after the cutover —
// read-your-writes across the epoch boundary, (b) actual blocks moved
// within 1.5x the reported minimal-remap bound, (c) the new OSD really
// hosting blocks, and (d) a clean drain + scrub afterwards.
//
// Each writer proc owns a disjoint stripe range of the file and verifies
// its own region as it goes, so the reference content is exact despite the
// concurrency.
func TestExpandUnderLoad(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cfg := testConfig(engine)
			cfg.EngineOpts.UnitSize = 64 << 10 // keep TSUE overlay resident so logs follow blocks
			run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
				rng := rand.New(rand.NewSource(42))
				const stripes = 16
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

				const nWriters = 4
				perRegion := fileSize / nWriters
				stop := false
				done := 0
				var wErr error
				wg := sim.NewWaitGroup(c.Env)
				wg.Add(nWriters)
				for wi := 0; wi < nWriters; wi++ {
					wi := wi
					wcl := c.NewClient()
					wrng := rand.New(rand.NewSource(int64(100 + wi)))
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
							if j%5 == 4 {
								// Read-your-writes probe inside the owned region,
								// concurrent with migration.
								roff := base + int64(wrng.Intn(int(perRegion-8192)))
								got, err := wcl.Read(wp, ino, roff, 8192)
								if err != nil {
									if wErr == nil {
										wErr = fmt.Errorf("writer %d read: %w", wi, err)
									}
									return
								}
								if !bytes.Equal(got, content[roff:roff+8192]) {
									if wErr == nil {
										wErr = fmt.Errorf("writer %d: read mismatch at %d mid-migration", wi, roff)
									}
									return
								}
							}
						}
					})
				}

				// Let the workload reach steady state, then expand online.
				for done < 60 && wErr == nil {
					p.Sleep(200 * time.Microsecond)
				}
				if wErr != nil {
					t.Fatal(wErr)
				}
				rep, newID, err := c.Expand(p, cl, rebalance.Config{RateBps: 64 << 20})
				if err != nil {
					t.Fatalf("expand: %v", err)
				}
				// Keep load running briefly against the committed epoch so
				// stale-view clients exercise the re-resolve path.
				post := done
				for done < post+40 && wErr == nil {
					p.Sleep(200 * time.Microsecond)
				}
				stop = true
				wg.Wait(p)
				if wErr != nil {
					t.Fatal(wErr)
				}

				t.Logf("%s: moved=%d bound=%.1f (%.2fx) recopied=%d replayed=%d items pgs=%d stall(total=%v max=%v)",
					engine, rep.MovedBlocks, rep.BoundBlocks, rep.ActualOverBound,
					rep.RecopiedBlocks, rep.ReplayedItems, rep.PGsMigrated, rep.StallTime, rep.MaxStall)

				if rep.MovedBlocks == 0 {
					t.Fatal("expansion moved nothing")
				}
				if float64(rep.MovedBlocks) > 1.5*rep.BoundBlocks+1e-9 {
					t.Fatalf("moved %d blocks > 1.5x bound %.2f", rep.MovedBlocks, rep.BoundBlocks)
				}
				if c.OSDByID(newID).Store().Len() == 0 {
					t.Fatal("new OSD hosts no blocks after expansion")
				}
				if got := c.MDS.CommittedEpoch(); got != 1 {
					t.Fatalf("committed epoch %d, want 1", got)
				}

				// Byte-exact reads across the epoch boundary.
				got, err := cl.Read(p, ino, 0, fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("post-expansion read mismatch")
				}
				if err := c.DrainAll(p, cl); err != nil {
					t.Fatal(err)
				}
				if n, err := c.Scrub(); err != nil || n != stripes {
					t.Fatalf("post-expansion scrub: n=%d err=%v", n, err)
				}
				got, err = cl.Read(p, ino, 0, fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("post-drain read mismatch")
				}
			})
		})
	}
}

// TestExpandLogFollowsBlock pins TSUE's cutover advantage: with updates in
// flight, at least some migrating blocks carry unrecycled DataLog overlay
// that must be extracted and replayed at the new home rather than drained.
func TestExpandLogFollowsBlock(t *testing.T) {
	cfg := testConfig("tsue")
	cfg.EngineOpts.UnitSize = 1 << 20 // units never seal: all updates stay overlay
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(7))
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
		// Touch every data block so each holds active-unit overlay.
		sw := c.StripeWidth()
		for off := int64(0); off < fileSize; off += c.Cfg.BlockSize {
			_ = sw
			buf := make([]byte, 512)
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Fatal(err)
			}
			copy(content[off:], buf)
		}
		rep, _, err := c.Expand(p, cl, rebalance.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ReplayedItems == 0 {
			t.Fatalf("no DataLog overlay followed any block (moved=%d)", rep.MovedBlocks)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("read mismatch after log-follows-block cutover")
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExpandRecoveryMutualExclusion pins the control-plane guard rails:
// expansion refuses while a node is degraded, and recovery refuses while a
// transition is staged.
func TestExpandRecoveryMutualExclusion(t *testing.T) {
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

		// Degraded window open -> Expand refused.
		victim := c.Placement(wire.StripeID{Ino: ino, Stripe: 0})[0]
		c.Fabric.SetDown(victim, true)
		if _, err := c.registerDegraded(p, victim, cl); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Expand(p, cl, rebalance.Config{}); err == nil {
			t.Fatal("Expand accepted during a degraded window")
		}
		c.unregisterDegraded(victim)
		c.Fabric.SetDown(victim, false)

		// Transition staged -> Recover refused.
		osd, err := c.AddOSDNode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.stageEpoch(p, cl, &wire.EpochUpdate{Kind: wire.EpochStageAddOSD, OSD: osd.id}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recover(p, victim, 4, RecoverInterleaved, cl); err == nil {
			t.Fatal("Recover accepted during a placement transition")
		}
		// Staging twice is refused too.
		if _, err := c.stageEpoch(p, cl, &wire.EpochUpdate{Kind: wire.EpochStageAddOSD, OSD: osd.id}); err == nil {
			t.Fatal("second stage accepted mid-transition")
		}
		// Finish the transition properly so the cluster ends consistent.
		rep, err := c.migrate(p, cl, c.MDS.trans.next, rebalance.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.MovedBlocks == 0 {
			t.Fatal("migration moved nothing")
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
	})
}
