package logpool

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tsue/internal/wire"
)

// insertRef is the allocate-and-copy Insert this package shipped before the
// in-place merge: every merge builds a fresh exact-size buffer and XORs byte
// by byte. It never mutates a buffer it has handed out, which makes it the
// oracle for Insert's contents, extent boundaries and byte accounting.
func insertRef(b *BlockLog, off int64, data []byte, mode MergeMode) {
	if len(data) == 0 {
		return
	}
	b.RawAppends++
	end := off + int64(len(data))
	b.setBitmap(off, end)

	if b.Raw {
		b.extents = append(b.extents, Extent{Off: off, Data: append([]byte(nil), data...)})
		return
	}
	lo := sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() >= off })
	hi := lo
	for hi < len(b.extents) && b.extents[hi].Off <= end {
		hi++
	}
	if lo == hi {
		b.extents = append(b.extents, Extent{})
		copy(b.extents[lo+1:], b.extents[lo:])
		b.extents[lo] = Extent{Off: off, Data: append([]byte(nil), data...)}
		return
	}
	mergedOff := off
	if b.extents[lo].Off < mergedOff {
		mergedOff = b.extents[lo].Off
	}
	mergedEnd := end
	if e := b.extents[hi-1].End(); e > mergedEnd {
		mergedEnd = e
	}
	buf := make([]byte, mergedEnd-mergedOff)
	for i := lo; i < hi; i++ {
		copy(buf[b.extents[i].Off-mergedOff:], b.extents[i].Data)
	}
	dst := buf[off-mergedOff : off-mergedOff+int64(len(data))]
	switch mode {
	case Overwrite:
		copy(dst, data)
	case XOR:
		for i := range data {
			dst[i] ^= data[i]
		}
	default:
		panic(fmt.Sprintf("logpool: unknown merge mode %d", mode))
	}
	b.extents[lo] = Extent{Off: mergedOff, Data: buf}
	b.extents = append(b.extents[:lo+1], b.extents[hi:]...)
}

// diffSpan is the block range the differential tests insert into: small, so
// random records keep colliding.
const diffSpan = 1 << 12

// sameLog fails unless got and want agree on everything a caller can see:
// extents (offsets and bytes), Bytes, the raw counters, Overlay and Gaps.
func sameLog(t testing.TB, step string, got, want *BlockLog) {
	t.Helper()
	ge, we := got.Extents(), want.Extents()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d extents, reference has %d", step, len(ge), len(we))
	}
	for i := range ge {
		if ge[i].Off != we[i].Off || !bytes.Equal(ge[i].Data, we[i].Data) {
			t.Fatalf("%s: extent %d is [%d,%d), reference [%d,%d) (or bytes differ)",
				step, i, ge[i].Off, ge[i].End(), we[i].Off, we[i].End())
		}
	}
	if got.Bytes() != recount(want) || got.RawAppends != want.RawAppends {
		t.Fatalf("%s: Bytes/RawAppends %d/%d, reference %d/%d", step,
			got.Bytes(), got.RawAppends, recount(want), want.RawAppends)
	}
	for _, w := range [][2]int64{{0, diffSpan}, {diffSpan / 3, diffSpan / 2}, {diffSpan - 100, diffSpan + 50}} {
		g, r := make([]byte, w[1]-w[0]), make([]byte, w[1]-w[0])
		got.Overlay(w[0], g)
		want.Overlay(w[0], r)
		if !bytes.Equal(g, r) {
			t.Fatalf("%s: Overlay[%d,%d) differs from the reference", step, w[0], w[1])
		}
		if gg, rg := fmt.Sprint(got.Gaps(w[0], w[1])), fmt.Sprint(want.Gaps(w[0], w[1])); gg != rg {
			t.Fatalf("%s: Gaps[%d,%d) = %s, reference %s", step, w[0], w[1], gg, rg)
		}
	}
}

// nextRecord draws one insert whose shape is chosen against the log's
// current extents, so every merge path is hit often: disjoint, adjacent on
// either side, inside one extent, overlapping an edge, bridging several
// extents, prepending, and a sequential run continuing the previous insert.
func nextRecord(rng *rand.Rand, b *BlockLog, lastEnd int64) (off, n int64) {
	ex := b.Extents()
	clamp := func(off, n int64) (int64, int64) {
		if off < 0 {
			off = 0
		}
		if off >= diffSpan {
			off = diffSpan - 1
		}
		if n < 1 {
			n = 1
		}
		if off+n > diffSpan {
			n = diffSpan - off
		}
		return off, n
	}
	if len(ex) == 0 || b.Raw {
		return clamp(rng.Int63n(diffSpan), 1+rng.Int63n(96))
	}
	e := ex[rng.Intn(len(ex))]
	switch rng.Intn(9) {
	case 0: // anywhere
		return clamp(rng.Int63n(diffSpan), 1+rng.Int63n(96))
	case 1: // adjacent after
		return clamp(e.End(), 1+rng.Int63n(64))
	case 2: // adjacent before (prepend)
		n := 1 + rng.Int63n(64)
		return clamp(e.Off-n, n)
	case 3: // strictly inside
		off := e.Off + rng.Int63n(int64(len(e.Data)))
		return clamp(off, 1+rng.Int63n(e.End()-off))
	case 4: // overlapping the tail
		return clamp(e.End()-1-rng.Int63n(int64(len(e.Data))), 1+int64(len(e.Data))+rng.Int63n(48))
	case 5: // overlapping the head (prepend + overlap)
		n := 2 + rng.Int63n(64)
		return clamp(e.Off-n/2, n)
	case 6: // bridging from this extent across the next few
		j := rng.Intn(len(ex))
		k := j + rng.Intn(len(ex)-j)
		return clamp(ex[j].Off+rng.Int63n(int64(len(ex[j].Data))+1), ex[k].End()-ex[j].Off+rng.Int63n(8))
	case 7: // covering everything
		return clamp(ex[0].Off-rng.Int63n(4), diffSpan)
	default: // sequential run: continue where the previous insert ended
		return clamp(lastEnd, 1+rng.Int63n(64))
	}
}

// TestInsertMatchesAllocatingReference drives the in-place Insert, the
// ownership-taking InsertOwned (fed a private clone of every record, which
// nobody touches afterwards — the contract) and the allocate-and-copy
// reference with the same random sequences, in both merge modes with Raw off
// and on, and compares both against the reference after every single insert.
func TestInsertMatchesAllocatingReference(t *testing.T) {
	for _, mode := range []MergeMode{Overwrite, XOR} {
		for _, raw := range []bool{false, true} {
			for seed := int64(1); seed <= 30; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + int64(mode)))
				got, own, want := &BlockLog{Raw: raw}, &BlockLog{Raw: raw}, &BlockLog{Raw: raw}
				var lastEnd int64
				for i := 0; i < 150; i++ {
					off, n := nextRecord(rng, got, lastEnd)
					lastEnd = off + n
					data := make([]byte, n)
					rng.Read(data)
					pristine := append([]byte(nil), data...)
					got.Insert(off, data, mode)
					own.InsertOwned(off, append([]byte(nil), data...), mode)
					insertRef(want, off, data, mode)
					if !bytes.Equal(data, pristine) {
						t.Fatalf("Insert mutated its argument")
					}
					step := fmt.Sprintf("mode %d raw %v seed %d insert %d [%d,%d)", mode, raw, seed, i, off, off+n)
					sameLog(t, step, got, want)
					sameLog(t, step+" (owned)", own, want)
				}
			}
		}
	}
}

// FuzzInsertMatchesReference decodes the input as a list of records
// (offset, length, fill byte; 4 bytes each) and holds Insert and InsertOwned
// to the reference. `go test` replays the seeds below; `go test -fuzz` explores.
func FuzzInsertMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 8, 1, 0, 8, 8, 2, 0, 16, 8, 3, 0, 4, 40, 4})     // sequential run, then a cover
	f.Add(uint8(1), []byte{0, 64, 8, 1, 0, 32, 8, 2, 0, 40, 24, 3, 0, 0, 200, 4}) // XOR: gap bridged, then a cover
	f.Add(uint8(1), []byte{0, 10, 10, 1, 0, 12, 4, 2, 0, 5, 30, 3})               // XOR: inside, then prepend + overlap
	f.Add(uint8(2), []byte{1, 0, 50, 1, 1, 0, 50, 2, 0, 200, 9, 3})               // raw
	f.Fuzz(func(t *testing.T, flags uint8, recs []byte) {
		mode, raw := MergeMode(flags&1), flags&2 != 0
		got, own, want := &BlockLog{Raw: raw}, &BlockLog{Raw: raw}, &BlockLog{Raw: raw}
		for i := 0; i+4 <= len(recs) && i < 4*200; i += 4 {
			off := (int64(recs[i])<<8 | int64(recs[i+1])) % diffSpan
			data := bytes.Repeat([]byte{recs[i+3]}, int(recs[i+2]))
			for j := range data {
				data[j] += byte(j)
			}
			got.Insert(off, data, mode)
			own.InsertOwned(off, append([]byte(nil), data...), mode)
			insertRef(want, off, data, mode)
			step := fmt.Sprintf("record %d [%d,%d)", i/4, off, off+int64(len(data)))
			sameLog(t, step, got, want)
			sameLog(t, step+" (owned)", own, want)
		}
	})
}

// TestInsertSequentialRunReusesCapacity pins the growth policy: a run of
// appends that each continue the previous one reallocates O(log n) times,
// a scattered fill with the same final extent never holds spare capacity.
func TestInsertSequentialRunReusesCapacity(t *testing.T) {
	rec := make([]byte, 64)
	var run BlockLog
	reallocs := 0
	var prev *byte
	for i := 0; i < 256; i++ {
		run.Insert(int64(i)*64, rec, Overwrite)
		if p := &run.Extents()[0].Data[0]; p != prev {
			reallocs++
			prev = p
		}
	}
	if ex := run.Extents(); len(ex) != 1 || len(ex[0].Data) != 256*64 || run.Bytes() != 256*64 {
		t.Fatalf("run did not merge into one 16 KiB extent: %d extents, %d bytes", len(ex), run.Bytes())
	}
	if reallocs > 10 {
		t.Fatalf("sequential run of 256 appends reallocated %d times, want O(log n)", reallocs)
	}

	var scattered BlockLog
	for i := 0; i < 256; i++ {
		scattered.Insert(int64(i*177%256)*64, rec, Overwrite) // a permutation: no insert continues the last
		for _, e := range scattered.Extents() {
			if cap(e.Data) >= 2*len(e.Data) {
				t.Fatalf("scattered insert %d left cap %d on a %d-byte extent", i, cap(e.Data), len(e.Data))
			}
		}
	}
}

// recount is the from-scratch walk BlockLog.Bytes was before it became a
// running count: the reference for every incremental byte counter.
func recount(b *BlockLog) int64 {
	var n int64
	for _, e := range b.extents {
		n += int64(len(e.Data))
	}
	return n
}

// TestPoolMemCountsLenNotCap drives a Pool through a random sequence of
// appends — sequential runs included, so extents carry spare capacity —
// forced seals, delayed recycles, unit reuse, extractions and batched merged
// views, mirrored in a shadow index built with the reference insert. After
// every step each incremental counter (BlockLog.Bytes, Unit.IndexedBytes,
// Stats.MemBytes, Stats.PeakMemBytes) must equal a from-scratch recount of
// the shadow's exact-size footprint: the accounting behind sim_peak_log_mb
// counts len, never cap, and never drifts.
func TestPoolMemCountsLenNotCap(t *testing.T) {
	for _, tc := range []struct {
		mode MergeMode
		raw  bool
	}{{Overwrite, false}, {XOR, false}, {Overwrite, true}} {
		rng := rand.New(rand.NewSource(77))
		p := NewPool(0, tc.mode, 8<<10, 3)
		p.NoMerge = tc.raw
		shadow := map[uint64]map[wire.BlockID]*BlockLog{} // by unit Seq
		var peak int64
		var sealed []*Unit // sealed and not yet recycled, oldest first
		step := ""
		check := func() {
			t.Helper()
			var mem int64
			for _, u := range p.Units() {
				var unit int64
				for blk, ref := range shadow[u.Seq] {
					n := recount(ref)
					if bl := u.Lookup(blk); bl == nil || bl.Bytes() != n {
						t.Fatalf("%s: unit %d block %v: log %v, recount %d", step, u.Seq, blk, bl, n)
					}
					unit += n
				}
				if len(u.Blocks()) != len(shadow[u.Seq]) || u.IndexedBytes() != unit {
					t.Fatalf("%s: unit %d holds %d blocks / %d bytes, recount %d / %d",
						step, u.Seq, len(u.Blocks()), u.IndexedBytes(), len(shadow[u.Seq]), unit)
				}
				mem += unit
			}
			peak = max(peak, mem)
			if st := p.Stats(); st.MemBytes != mem || st.PeakMemBytes != peak {
				t.Fatalf("%s: MemBytes %d peak %d, exact-size recount %d peak %d",
					step, st.MemBytes, st.PeakMemBytes, mem, peak)
			}
		}
		recycleOldest := func() {
			if len(sealed) >= 2 {
				// The batched view counts too: raw mode concatenates
				// without Insert, merge mode re-inserts into private logs.
				view, _ := MergeUnits(sealed[:2], tc.mode, tc.raw)
				for blk, bl := range view {
					if bl.Bytes() != recount(bl) {
						t.Fatalf("%s: merged view of %v: Bytes %d, recount %d", step, blk, bl.Bytes(), recount(bl))
					}
				}
			}
			p.MarkRecycling(sealed[0])
			p.MarkRecycled(sealed[0], 0)
			sealed = sealed[1:]
		}
		next := map[wire.BlockID]int64{}
		for i := 0; i < 4000; i++ {
			blk := wire.BlockID{Ino: 1, Index: uint16(rng.Intn(3))}
			switch k := rng.Intn(20); {
			case k == 0:
				step = fmt.Sprintf("mode %d raw %v step %d (seal)", tc.mode, tc.raw, i)
				if u := p.SealActive(0); u != nil {
					sealed = append(sealed, u)
				}
			case k == 1 && len(sealed) > 0:
				step = fmt.Sprintf("mode %d raw %v step %d (recycle)", tc.mode, tc.raw, i)
				recycleOldest()
			case k == 2:
				step = fmt.Sprintf("mode %d raw %v step %d (extract)", tc.mode, tc.raw, i)
				var want []Extent
				if u := p.Active(); u != nil && shadow[u.Seq][blk] != nil {
					want = shadow[u.Seq][blk].Extents()
					delete(shadow[u.Seq], blk)
				}
				got := p.ExtractActive(blk)
				if len(got) != len(want) {
					t.Fatalf("%s: extracted %d extents, shadow holds %d", step, len(got), len(want))
				}
				for j := range got {
					if got[j].Off != want[j].Off || !bytes.Equal(got[j].Data, want[j].Data) {
						t.Fatalf("%s: extracted extent %d differs from the shadow", step, j)
					}
				}
			default:
				step = fmt.Sprintf("mode %d raw %v step %d (append)", tc.mode, tc.raw, i)
				off := next[blk] // mostly sequential per block...
				if rng.Intn(4) == 0 {
					off = rng.Int63n(diffSpan) // ...with scattered records mixed in
				}
				data := make([]byte, 1+rng.Intn(200))
				rng.Read(data)
				next[blk] = (off + int64(len(data))) % diffSpan
				// Half the records are moved in: same accounting either way.
				// The shadow is fed first — a moved buffer is not ours to
				// read once the pool has it.
				add := p.Append
				if rng.Intn(2) == 0 {
					add = p.AppendOwned
				}
				shadowData := append([]byte(nil), data...)
				u, ok := add(blk, off, data, 0)
				if !ok { // every unit sealed: recycle one, which the retry reuses
					check()
					recycleOldest()
					u, ok = add(blk, off, data, 0)
				}
				if !ok {
					t.Fatalf("%s: stalled with a recycled unit at the head", step)
				}
				if u != nil {
					sealed = append(sealed, u)
				}
				tail := p.Tail()
				if shadow[tail.Seq] == nil {
					shadow[tail.Seq] = map[wire.BlockID]*BlockLog{}
				}
				if shadow[tail.Seq][blk] == nil {
					shadow[tail.Seq][blk] = &BlockLog{Raw: tc.raw}
				}
				insertRef(shadow[tail.Seq][blk], off, shadowData, tc.mode)
			}
			check()
		}
	}
}

// snapshot deep-copies a set of extents and keeps the originals beside the
// copy, so a later in-place mutation of an original shows as a difference.
type snapshot struct {
	live, copy []Extent
}

func snap(ex []Extent) snapshot {
	s := snapshot{live: append([]Extent(nil), ex...)}
	for _, e := range ex {
		s.copy = append(s.copy, Extent{Off: e.Off, Data: append([]byte(nil), e.Data...)})
	}
	return s
}

func (s snapshot) unchanged() bool {
	for i := range s.live {
		if s.live[i].Off != s.copy[i].Off || !bytes.Equal(s.live[i].Data, s.copy[i].Data) {
			return false
		}
	}
	return true
}

// TestSealedAndExtractedLogsAreImmutable pins the ownership rule Insert's
// in-place merge relies on: once a unit is sealed, or a block's log has been
// extracted from the active unit, no later append to the pool — not even one
// that continues the same sequential run into the spare capacity those
// buffers still carry — changes a byte of them; and building a merged view
// over sealed units copies instead of writing into them.
func TestSealedAndExtractedLogsAreImmutable(t *testing.T) {
	for _, mode := range []MergeMode{Overwrite, XOR} {
		p := NewPool(0, mode, 1<<10, 4)
		rec := bytes.Repeat([]byte{0xA5}, 100)
		var off int64
		appendRun := func(n int) (sealed []*Unit) {
			for i := 0; i < n; i++ {
				u, ok := p.Append(blkA, off, rec, 0)
				if !ok {
					t.Fatal("pool stalled")
				}
				off += int64(len(rec))
				if u != nil {
					sealed = append(sealed, u)
				}
			}
			return sealed
		}
		sealed := appendRun(25) // seals two units mid-run
		if len(sealed) != 2 {
			t.Fatalf("sealed %d units, want 2", len(sealed))
		}
		var snaps []snapshot
		for _, u := range sealed {
			ex := u.Lookup(blkA).Extents()
			if last := ex[len(ex)-1]; cap(last.Data) == len(last.Data) {
				t.Fatal("test needs a sealed extent with spare capacity")
			}
			snaps = append(snaps, snap(ex))
		}

		// The merged view of the sealed units is private...
		merged, _ := MergeUnits(sealed, mode, false)
		view := snap(merged[blkA].Extents())
		// ...and the active unit's log, once extracted, is nobody's to append to.
		extracted := p.ExtractActive(blkA)
		if len(extracted) == 0 {
			t.Fatal("nothing extracted from the active unit")
		}
		snaps = append(snaps, view, snap(extracted))

		appendRun(6)                 // continues the run exactly where the extracted log ended
		p.Append(blkA, 50, rec, 0)   // lands inside the sealed units' range
		p.Append(blkA, 2450, rec, 0) // overlaps the extracted range
		for i, s := range snaps {
			if !s.unchanged() {
				t.Fatalf("mode %d: snapshot %d (0-1 sealed units, 2 merged view, 3 extracted) changed under later appends", mode, i)
			}
		}
	}
}

// TestInsertOwnedKeepsPlainInsertsOnly pins who holds which buffer. An owned
// record that merges with nothing — and every owned raw-mode record — IS the
// extent's buffer from then on, clipped to its length so that a later
// in-place merge cannot grow into bytes the caller never handed over; an
// owned record that merges is copied or XORed into the log's buffers like
// any other; and the copying entries never keep what they are given, so the
// caller may overwrite it the moment they return.
func TestInsertOwnedKeepsPlainInsertsOnly(t *testing.T) {
	holds := func(ex []Extent, data []byte) bool {
		for _, e := range ex {
			if &e.Data[0] == &data[0] {
				return true
			}
		}
		return false
	}
	rec := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64)[:48] } // cap 64 > len 48
	for _, mode := range []MergeMode{Overwrite, XOR} {
		for _, raw := range []bool{false, true} {
			var b BlockLog
			b.Raw = raw
			first := rec(1)
			b.InsertOwned(1000, first, mode)
			ex := b.Extents()
			if !holds(ex, first) || cap(ex[0].Data) != len(first) {
				t.Fatalf("mode %d raw %v: plain owned insert not adopted (or not clipped: cap %d)", mode, raw, cap(ex[0].Data))
			}
			// Adjacent owned record, short enough to fit the spare capacity
			// first came with: it merges (non-raw), so it is let go — and
			// the merge must not have landed in that spare capacity.
			second := rec(2)[:8]
			b.InsertOwned(1048, second, mode)
			if got := holds(b.Extents(), second); got != raw {
				t.Fatalf("mode %d raw %v: merging owned insert adopted=%v, want %v", mode, raw, got, raw)
			}
			if !bytes.Equal(first[48:64], bytes.Repeat([]byte{1}, 16)) {
				t.Fatalf("mode %d raw %v: a merge grew into the spare capacity of an adopted buffer", mode, raw)
			}
			// The copying entry never keeps its argument, plain or merging.
			third, fourth := rec(3), rec(4)
			b.Insert(5000, third, mode)
			b.Insert(5048, fourth, mode)
			if holds(b.Extents(), third) || holds(b.Extents(), fourth) {
				t.Fatalf("mode %d raw %v: copying Insert kept its argument", mode, raw)
			}
			before := snap(b.Extents())
			clear(third)
			clear(fourth)
			if !before.unchanged() {
				t.Fatalf("mode %d raw %v: overwriting a copied record changed the log", mode, raw)
			}
		}
	}

	// The same through a pool: AppendOwned adopts, Append copies.
	p := NewPool(0, XOR, 1<<20, 2)
	moved, copied := rec(5), rec(6)
	p.AppendOwned(blkA, 0, moved, 0)
	p.Append(blkA, 4096, copied, 0)
	ex := p.Tail().Lookup(blkA).Extents()
	if !holds(ex, moved) || holds(ex, copied) {
		t.Fatalf("pool: AppendOwned adopted=%v, Append kept=%v", holds(ex, moved), holds(ex, copied))
	}
}
