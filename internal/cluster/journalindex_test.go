package cluster

// Differential test of the degraded journal's two-level index: the journal
// merges each block's records into extents as they arrive, and the
// reference below keeps them as a flat, append-ordered record list.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// TestDegradedJournalIndexMatchesReference: replica seeds and seeded random
// overlapping and adjacent degraded updates land on up to three lost
// blocks. Every degraded read before the cutover must equal a reference
// that reconstructs the range from the surviving shards (frozen since the
// settle barrier) and overlays the block's raw records oldest-first. After
// Recover the cutover must count every journaled record, replay as many
// extents as a reference interval merge of those records, and leave the
// file byte-exact and every stripe clean.
func TestDegradedJournalIndexMatchesReference(t *testing.T) {
	for _, seed := range []int64{59, 61, 67} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runJournalIndexDiff(t, seed) })
	}
}

func runJournalIndexDiff(t *testing.T, seed int64) {
	c := MustNew(degradedConfig("tsue"))
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		const stripes = 8
		bs := c.Cfg.BlockSize
		fileSize := stripes * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		// Nothing unrecycled: the seeds are exactly the updates below.
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		// The victim is the OSD holding the most data blocks; the test works
		// on the first three of them.
		dataBlocks := make(map[wire.NodeID][]wire.BlockID)
		for s := uint32(0); s < stripes; s++ {
			for i, id := range c.Placement(wire.StripeID{Ino: ino, Stripe: s})[:c.Cfg.K] {
				dataBlocks[id] = append(dataBlocks[id], wire.BlockID{Ino: ino, Stripe: s, Index: uint16(i)})
			}
		}
		var victim wire.NodeID
		for _, o := range c.OSDs {
			if len(dataBlocks[o.id]) > len(dataBlocks[victim]) {
				victim = o.id
			}
		}
		lost := dataBlocks[victim][:min(3, len(dataBlocks[victim]))]
		if len(lost) < 2 {
			t.Errorf("victim %d hosts %d data blocks, want at least 2", victim, len(lost))
			return
		}
		fileOff := func(blk wire.BlockID, off int64) int64 {
			return int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*bs + off
		}
		update := func(blk wire.BlockID, off int64, n int64) bool {
			buf := make([]byte, n)
			rng.Read(buf)
			if err := cl.Update(p, ino, fileOff(blk, off), buf); err != nil {
				t.Errorf("update %v [%d,+%d): %v", blk, off, n, err)
				return false
			}
			copy(content[fileOff(blk, off):], buf)
			return true
		}
		// Unrecycled updates the victim's DataLog holds when it dies: their
		// replicas become the journal's seeds.
		for i := 0; i < 4*len(lost); i++ {
			n := 1 + rng.Int63n(1024)
			if !update(lost[i%len(lost)], rng.Int63n(bs-n), n) {
				return
			}
		}
		if err := c.BeginDegraded(p, victim, admin); err != nil {
			t.Error(err)
			return
		}
		st := c.degraded[victim]
		// The reference journal: the raw records per block, oldest first,
		// starting with the seeds as registerDegraded took them.
		seeds, err := c.fetchReplicaItems(p, victim, admin)
		if err != nil {
			t.Error(err)
			return
		}
		records := make(map[wire.BlockID][]wire.ReplicaItem)
		journaled := 0
		for _, it := range append(seeds, st.orphans...) {
			if st.stripes[it.Blk.StripeID()] {
				records[it.Blk] = append(records[it.Blk], it)
				journaled++
			}
		}
		if journaled == 0 {
			t.Error("no replica seeds for the lost blocks")
			return
		}
		check := func(blk wire.BlockID, off, n int64) bool {
			got, err := cl.Read(p, ino, fileOff(blk, off), n)
			if err != nil {
				t.Errorf("degraded read %v [%d,+%d): %v", blk, off, n, err)
				return false
			}
			want, err := referenceRead(c, blk, off, n, records[blk])
			if err != nil {
				t.Error(err)
				return false
			}
			if !bytes.Equal(got, want) {
				t.Errorf("degraded read %v [%d,+%d) differs from the raw-record reference", blk, off, n)
				return false
			}
			if !bytes.Equal(got, content[fileOff(blk, off):fileOff(blk, off+n)]) {
				t.Errorf("degraded read %v [%d,+%d) differs from the last writes", blk, off, n)
				return false
			}
			return true
		}
		for op := 0; op < 90; op++ {
			blk := lost[rng.Intn(len(lost))]
			if rng.Intn(3) == 0 {
				off := rng.Int63n(bs)
				if !check(blk, off, 1+rng.Int63n(min(bs-off, 4096))) {
					return
				}
				continue
			}
			// Aim most updates at an existing record of the block: start
			// inside it, right after it, or end right before it.
			n := 1 + rng.Int63n(1536)
			off := rng.Int63n(bs)
			if recs := records[blk]; len(recs) > 0 && rng.Intn(4) != 0 {
				r := recs[rng.Intn(len(recs))]
				switch rng.Intn(3) {
				case 0:
					off = r.Off + rng.Int63n(int64(len(r.Data)))
				case 1:
					off = r.Off + int64(len(r.Data))
				default:
					off = max(r.Off-n, 0)
				}
			}
			off = min(off, bs-1)
			n = min(n, bs-off)
			if !update(blk, off, n) {
				return
			}
			data := content[fileOff(blk, off):fileOff(blk, off+n)]
			records[blk] = append(records[blk], wire.ReplicaItem{Blk: blk, Off: off, Data: slices.Clone(data)})
			journaled++
		}
		for _, blk := range lost {
			if !check(blk, 0, bs) {
				return
			}
		}
		extents := 0
		for _, recs := range records {
			extents += mergedExtents(recs)
		}
		t.Logf("victim %d: %d records (%d seeds) on %d blocks merge into %d extents",
			victim, journaled, len(seeds), len(records), extents)
		if extents >= journaled {
			t.Errorf("%d records merge into %d extents: no record overlapped or touched another", journaled, extents)
		}
		rep, err := c.Recover(p, victim, 4, RecoverInterleaved, admin)
		if err != nil {
			t.Error(err)
			return
		}
		if rep.ReplayedRecords != journaled {
			t.Errorf("cutover took %d records, want the %d journaled", rep.ReplayedRecords, journaled)
		}
		if rep.ReplayedItems != extents {
			t.Errorf("cutover replayed %d extents, the reference merge has %d", rep.ReplayedItems, extents)
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content after the cutover differs from the last writes")
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// referenceRead is what a degraded read of [off, off+n) of the lost block
// blk must return: the range reconstructed from the surviving shards, with
// the block's raw journal records overlaid oldest-first so the newest write
// wins. It reads the stores directly, at no simulated cost.
func referenceRead(c *Cluster, blk wire.BlockID, off, n int64, recs []wire.ReplicaItem) ([]byte, error) {
	osds := c.Placement(blk.StripeID())
	shards := make([][]byte, c.Cfg.K+c.Cfg.M)
	for i, id := range osds {
		if c.Fabric.Down(id) {
			continue
		}
		sblk := wire.BlockID{Ino: blk.Ino, Stripe: blk.Stripe, Index: uint16(i)}
		buf, ok := c.OSDByID(id).store.Peek(sblk)
		if !ok {
			return nil, fmt.Errorf("reference read: %v missing on node %d", sblk, id)
		}
		shards[i] = slices.Clone(buf[off : off+n])
	}
	if err := c.Code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("reference read %v: %w", blk, err)
	}
	out := shards[blk.Index]
	for _, r := range recs {
		overlayRange(out, off, r.Off, r.Data)
	}
	return out, nil
}

// overlayRange copies the intersection of record (recOff, recData) onto
// dst, where dst holds the byte range starting at dstOff.
func overlayRange(dst []byte, dstOff, recOff int64, recData []byte) {
	lo, hi := recOff, recOff+int64(len(recData))
	if lo < dstOff {
		lo = dstOff
	}
	if end := dstOff + int64(len(dst)); hi > end {
		hi = end
	}
	if lo >= hi {
		return
	}
	copy(dst[lo-dstOff:hi-dstOff], recData[lo-recOff:hi-recOff])
}

// mergedExtents is the reference for a block's extent count: the number of
// maximal runs its records cover, where overlapping and touching records
// join one run.
func mergedExtents(recs []wire.ReplicaItem) int {
	iv := make([][2]int64, 0, len(recs))
	for _, r := range recs {
		if len(r.Data) > 0 {
			iv = append(iv, [2]int64{r.Off, r.Off + int64(len(r.Data))})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	runs, end := 0, int64(0)
	for _, r := range iv {
		if runs == 0 || r[0] > end {
			runs++
			end = r[1]
		} else {
			end = max(end, r[1])
		}
	}
	return runs
}
