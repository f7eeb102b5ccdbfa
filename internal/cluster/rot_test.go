package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// TestAtRestRotDetectedAndRepaired is the cluster-level at-rest contract,
// on a log-structured and an in-place engine: one rotted 4 KiB granule of a
// stored data shard is never served — a client read covering it fails with
// the checksum sentinel instead of returning wrong bytes — while the rest
// of the block stays readable; ScrubRepair finds exactly that one block by
// its checksum, rebuilds it from the stripe, and everything reads again.
func TestAtRestRotDetectedAndRepaired(t *testing.T) {
	for _, engine := range []string{"tsue", "plr"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			run(t, testConfig(engine), func(p *sim.Proc, c *Cluster, cl *Client) {
				rng := rand.New(rand.NewSource(3))
				bs := c.Cfg.BlockSize // 16 KiB: four granules
				fileSize := 2 * c.StripeWidth()
				content := make([]byte, fileSize)
				rng.Read(content)
				ino, err := cl.Create(p, "f", fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.WriteFile(p, ino, content); err != nil {
					t.Fatal(err)
				}
				// Updates land in stripe 0 only, so stripe 1 is served from
				// the block store by every engine (no log read cache).
				for i := 0; i < 40; i++ {
					off := rng.Int63n(c.StripeWidth() - 4096)
					buf := make([]byte, 1+rng.Intn(4096))
					rng.Read(buf)
					if err := cl.Update(p, ino, off, buf); err != nil {
						t.Fatalf("update %d: %v", i, err)
					}
					copy(content[off:], buf)
				}
				if err := c.DrainAll(p, cl); err != nil {
					t.Fatal(err)
				}

				// Rot one byte in granule 2 of data shard 1 of stripe 1.
				blk := wire.BlockID{Ino: ino, Stripe: 1, Index: 1}
				store := c.OSDByID(c.Placement(blk.StripeID())[blk.Index]).Store()
				const gran = 4096
				if err := store.CorruptStored(blk, 2*gran+123); err != nil {
					t.Fatal(err)
				}
				blkOff := c.StripeWidth() + int64(blk.Index)*bs
				rotted := blkOff + 2*gran // file offset of the rotted granule
				clean := blkOff + 3*gran  // a neighbour in the same block

				if got, err := cl.Read(p, ino, rotted+100, 64); !errors.Is(err, wire.ErrChecksum) {
					t.Fatalf("read covering the rot: err=%v (%d bytes), want a checksum error", err, len(got))
				}
				if got, err := cl.Read(p, ino, blkOff, bs); !errors.Is(err, wire.ErrChecksum) {
					t.Fatalf("whole-block read over the rot: err=%v (%d bytes), want a checksum error", err, len(got))
				}
				got, err := cl.Read(p, ino, clean, gran)
				if err != nil || !bytes.Equal(got, content[clean:clean+gran]) {
					t.Fatalf("read of a clean granule of the rotted block: err=%v", err)
				}
				if _, err := c.Scrub(); err == nil {
					t.Fatal("Scrub passed a stripe holding a rotted data shard")
				}

				before := c.CorruptionsDetected()
				blocks, stripes, err := c.ScrubRepair(p)
				if err != nil {
					t.Fatal(err)
				}
				if det := c.CorruptionsDetected() - before; det != 1 || blocks != 1 || stripes != 1 {
					t.Fatalf("ScrubRepair: %d detections, %d blocks, %d stripes repaired; want 1/1/1", det, blocks, stripes)
				}
				if !store.VerifyStored(blk) {
					t.Fatal("repaired block still fails its checksums")
				}
				for _, r := range [][2]int64{{rotted + 100, 64}, {clean, gran}, {0, fileSize}} {
					got, err := cl.Read(p, ino, r[0], r[1])
					if err != nil || !bytes.Equal(got, content[r[0]:r[0]+r[1]]) {
						t.Fatalf("read [%d,+%d) after repair: err=%v", r[0], r[1], err)
					}
				}
				if n, err := c.Scrub(); err != nil || n != 2 {
					t.Fatalf("scrub after repair: n=%d err=%v", n, err)
				}
				if blocks, stripes, err := c.ScrubRepair(p); err != nil || blocks != 0 || stripes != 0 {
					t.Fatalf("second ScrubRepair found work: %d blocks, %d stripes, err=%v", blocks, stripes, err)
				}
			})
		})
	}
}

// TestDegradedReadCountsSourceRot: a degraded read of a lost block whose
// reconstruction reads a source shard with a rotted granule fails with the
// checksum sentinel, and the rot is counted once, at the source that found
// it, as a rebuild stream's source counts it. The read goes to the
// surrogate once: a client would retry the checksum failure.
func TestDegradedReadCountsSourceRot(t *testing.T) {
	run(t, degradedConfig("tsue"), func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(5))
		fileSize := 6 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		failed := wire.NodeID(3)
		blk := c.lostBlocks(failed)[0]
		osds := c.Placement(blk.StripeID())
		src := wire.BlockID{Ino: ino, Stripe: blk.Stripe, Index: uint16(c.OSDs[0].liveSources(blk, osds)[0])}
		if err := c.OSDByID(osds[src.Index]).Store().CorruptStored(src, 100); err != nil {
			t.Fatal(err)
		}
		if err := c.BeginDegraded(p, failed, cl); err != nil {
			t.Fatal(err)
		}
		_, surrogate, _ := c.degradedRoute(blk.StripeID())
		before := c.CorruptionsDetected()
		_, err = c.readData(c.Fabric.Call(p, cl.id, surrogate, &wire.DegradedRead{Failed: failed, Blk: blk, Size: 64}))
		if !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("degraded read over a rotted source: err=%v, want a checksum error", err)
		}
		if det := c.CorruptionsDetected() - before; det != 1 {
			t.Fatalf("degraded read over a rotted source: %d detections, want 1", det)
		}
	})
}
