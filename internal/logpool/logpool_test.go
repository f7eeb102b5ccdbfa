package logpool

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tsue/internal/wire"
)

func TestInsertDisjoint(t *testing.T) {
	var b BlockLog
	b.Insert(100, []byte{1, 2}, Overwrite)
	b.Insert(0, []byte{9}, Overwrite)
	b.Insert(50, []byte{5}, Overwrite)
	ex := b.Extents()
	if len(ex) != 3 || ex[0].Off != 0 || ex[1].Off != 50 || ex[2].Off != 100 {
		t.Fatalf("extents %+v", ex)
	}
}

func TestInsertOverwriteOverlap(t *testing.T) {
	var b BlockLog
	b.Insert(0, []byte{1, 1, 1, 1}, Overwrite)
	b.Insert(2, []byte{7, 7, 7, 7}, Overwrite)
	ex := b.Extents()
	if len(ex) != 1 {
		t.Fatalf("want 1 merged extent, got %+v", ex)
	}
	want := []byte{1, 1, 7, 7, 7, 7}
	if ex[0].Off != 0 || !bytes.Equal(ex[0].Data, want) {
		t.Fatalf("merged %+v want %v", ex[0], want)
	}
}

func TestInsertAdjacencyConcatenates(t *testing.T) {
	var b BlockLog
	b.Insert(0, []byte{1, 1}, Overwrite)
	b.Insert(2, []byte{2, 2}, Overwrite)
	b.Insert(4, []byte{3, 3}, Overwrite)
	ex := b.Extents()
	if len(ex) != 1 || !bytes.Equal(ex[0].Data, []byte{1, 1, 2, 2, 3, 3}) {
		t.Fatalf("adjacent extents not concatenated: %+v", ex)
	}
}

func TestInsertBridgesGap(t *testing.T) {
	var b BlockLog
	b.Insert(0, []byte{1, 1}, Overwrite)
	b.Insert(6, []byte{3, 3}, Overwrite)
	b.Insert(1, []byte{2, 2, 2, 2, 2, 2}, Overwrite) // spans [1,7)
	ex := b.Extents()
	if len(ex) != 1 {
		t.Fatalf("bridge failed: %+v", ex)
	}
	want := []byte{1, 2, 2, 2, 2, 2, 2, 3}
	if ex[0].Off != 0 || !bytes.Equal(ex[0].Data, want) {
		t.Fatalf("got %v want %v", ex[0].Data, want)
	}
}

func TestInsertDoesNotBridgeDistantExtents(t *testing.T) {
	var b BlockLog
	b.Insert(0, []byte{1}, Overwrite)
	b.Insert(100, []byte{2}, Overwrite)
	b.Insert(50, []byte{3}, Overwrite)
	if len(b.Extents()) != 3 {
		t.Fatalf("distant extents merged: %+v", b.Extents())
	}
}

func TestInsertXORAccumulates(t *testing.T) {
	var b BlockLog
	b.Insert(0, []byte{0x0f, 0x0f}, XOR)
	b.Insert(0, []byte{0xf0, 0x0f}, XOR)
	ex := b.Extents()
	if len(ex) != 1 || !bytes.Equal(ex[0].Data, []byte{0xff, 0x00}) {
		t.Fatalf("xor merge wrong: %+v", ex)
	}
}

func TestInsertXORPartialOverlap(t *testing.T) {
	var b BlockLog
	b.Insert(0, []byte{1, 1, 1}, XOR)
	b.Insert(2, []byte{1, 1, 1}, XOR)
	ex := b.Extents()
	want := []byte{1, 1, 0, 1, 1}
	if len(ex) != 1 || !bytes.Equal(ex[0].Data, want) {
		t.Fatalf("got %+v want %v", ex, want)
	}
}

// Property: Overwrite-mode log equals a reference flat buffer with
// latest-wins writes; extents are sorted, non-overlapping, non-adjacent.
func TestPropertyOverwriteMatchesReference(t *testing.T) {
	const span = 1 << 14
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b BlockLog
		ref := make([]byte, span)
		written := make([]bool, span)
		for i := 0; i < 60; i++ {
			off := rng.Intn(span - 1)
			n := 1 + rng.Intn(min(512, span-off))
			data := make([]byte, n)
			rng.Read(data)
			b.Insert(int64(off), data, Overwrite)
			copy(ref[off:], data)
			for j := off; j < off+n; j++ {
				written[j] = true
			}
		}
		// Extent invariants.
		ex := b.Extents()
		for i := range ex {
			if len(ex[i].Data) == 0 {
				return false
			}
			if i > 0 && ex[i].Off <= ex[i-1].End() {
				return false
			}
		}
		// Content matches reference exactly on written bytes.
		got := make([]byte, span)
		covered := make([]bool, span)
		for _, e := range ex {
			copy(got[e.Off:], e.Data)
			for j := e.Off; j < e.End(); j++ {
				covered[j] = true
			}
		}
		for j := 0; j < span; j++ {
			if covered[j] != written[j] {
				return false
			}
			if written[j] && got[j] != ref[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: XOR-mode log equals the XOR of all inserted records.
func TestPropertyXORMatchesReference(t *testing.T) {
	const span = 1 << 13
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b BlockLog
		ref := make([]byte, span)
		touched := make([]bool, span)
		for i := 0; i < 40; i++ {
			off := rng.Intn(span - 1)
			n := 1 + rng.Intn(min(256, span-off))
			data := make([]byte, n)
			rng.Read(data)
			b.Insert(int64(off), data, XOR)
			for j := 0; j < n; j++ {
				ref[off+j] ^= data[j]
				touched[off+j] = true
			}
		}
		got := make([]byte, span)
		for _, e := range b.Extents() {
			copy(got[e.Off:], e.Data)
		}
		for j := 0; j < span; j++ {
			if touched[j] && got[j] != ref[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlay(t *testing.T) {
	var b BlockLog
	b.Insert(10, []byte{1, 2, 3}, Overwrite)
	b.Insert(20, []byte{9}, Overwrite)
	dst := make([]byte, 15)
	b.Overlay(8, dst)
	want := make([]byte, 15)
	want[2], want[3], want[4] = 1, 2, 3
	want[12] = 9
	if !bytes.Equal(dst, want) {
		t.Fatalf("overlay %v want %v", dst, want)
	}
}

func TestMergeReducesExtentCount(t *testing.T) {
	var b BlockLog
	for i := 0; i < 100; i++ {
		b.Insert(int64((i%10)*4), []byte{byte(i), 0, 0, 0}, Overwrite)
	}
	if b.RawAppends != 100 {
		t.Fatalf("raw=%d", b.RawAppends)
	}
	if len(b.Extents()) != 1 {
		t.Fatalf("100 hot appends left %d extents, want 1", len(b.Extents()))
	}
}

// ---- pool tests ----

var blkA = wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
var blkB = wire.BlockID{Ino: 1, Stripe: 0, Index: 1}

func TestPoolSealOnFull(t *testing.T) {
	p := NewPool(0, Overwrite, 100, 4)
	var sealed *Unit
	for i := 0; i < 9; i++ {
		s, ok := p.Append(blkA, int64(i*12), make([]byte, 12), 0)
		if !ok {
			t.Fatal("unexpected stall")
		}
		if s != nil {
			sealed = s
		}
	}
	if sealed == nil {
		t.Fatal("108 bytes appended to 100-byte unit, never sealed")
	}
	if sealed.State != Recyclable {
		t.Fatalf("state %v", sealed.State)
	}
	if p.Active() != nil {
		t.Fatal("active should be nil until next append rotates")
	}
	// Next append allocates unit 2.
	if _, ok := p.Append(blkA, 0, make([]byte, 4), 0); !ok {
		t.Fatal("stall with maxUnits=4")
	}
}

func TestPoolStallsAtMaxUnits(t *testing.T) {
	p := NewPool(0, Overwrite, 10, 2)
	var sealedUnits []*Unit
	for i := 0; ; i++ {
		s, ok := p.Append(blkA, int64(i*10), make([]byte, 10), 0)
		if !ok {
			break
		}
		if s != nil {
			sealedUnits = append(sealedUnits, s)
		}
		if i > 10 {
			t.Fatal("pool never stalled")
		}
	}
	if len(sealedUnits) != 2 {
		t.Fatalf("sealed %d units, want 2", len(sealedUnits))
	}
	if !p.Stalled() {
		t.Fatal("Stalled() false")
	}
	// Recycling the oldest unit unstalls the pool.
	p.MarkRecycling(sealedUnits[0])
	p.MarkRecycled(sealedUnits[0], 5)
	if p.Stalled() {
		t.Fatal("still stalled after recycle")
	}
	if _, ok := p.Append(blkA, 0, make([]byte, 1), 6); !ok {
		t.Fatal("append after recycle failed")
	}
	if p.Stats().Stalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestPoolReuseWipesIndex(t *testing.T) {
	p := NewPool(0, Overwrite, 10, 2)
	s, _ := p.Append(blkA, 0, make([]byte, 10), 0)
	if s == nil {
		t.Fatal("no seal")
	}
	p.MarkRecycling(s)
	p.MarkRecycled(s, 1)
	// Fill unit 2 to force reuse of unit 1.
	s2, _ := p.Append(blkB, 0, make([]byte, 10), 2)
	if s2 == nil {
		t.Fatal("no second seal")
	}
	p.MarkRecycling(s2)
	p.MarkRecycled(s2, 3)
	_, ok := p.Append(blkB, 0, make([]byte, 1), 4)
	if !ok {
		t.Fatal("reuse failed")
	}
	act := p.Active()
	if act == nil {
		t.Fatal("no active unit")
	}
	if act.Lookup(blkA) != nil {
		t.Fatal("reused unit kept old index")
	}
}

func TestPoolCoversAndOverlayAcrossUnits(t *testing.T) {
	p := NewPool(0, Overwrite, 8, 4)
	p.Append(blkA, 0, []byte{1, 1, 1, 1, 1, 1, 1, 1}, 0) // seals unit 1
	p.Append(blkA, 4, []byte{2, 2, 2, 2}, 1)             // unit 2
	if !p.Covers(blkA, 0, 8) {
		t.Fatal("union coverage not detected")
	}
	if p.Covers(blkA, 0, 9) {
		t.Fatal("phantom coverage")
	}
	dst := make([]byte, 8)
	p.Overlay(blkA, 0, dst)
	want := []byte{1, 1, 1, 1, 2, 2, 2, 2}
	if !bytes.Equal(dst, want) {
		t.Fatalf("overlay %v want %v (newest must win)", dst, want)
	}
}

func TestPoolMemoryTracking(t *testing.T) {
	p := NewPool(0, Overwrite, 1<<20, 4)
	p.Append(blkA, 0, make([]byte, 1000), 0)
	st := p.Stats()
	if st.MemBytes != 1000 || st.PeakMemBytes != 1000 {
		t.Fatalf("mem=%d peak=%d", st.MemBytes, st.PeakMemBytes)
	}
	// Hot overwrite should not grow memory.
	p.Append(blkA, 0, make([]byte, 1000), 1)
	if p.Stats().MemBytes != 1000 {
		t.Fatalf("hot overwrite grew memory to %d", p.Stats().MemBytes)
	}
}

func TestPoolSealActiveForDrain(t *testing.T) {
	p := NewPool(0, Overwrite, 1<<20, 2)
	p.Append(blkA, 0, make([]byte, 10), 0)
	u := p.SealActive(1)
	if u == nil || u.State != Recyclable {
		t.Fatal("SealActive failed")
	}
	if p.SealActive(2) != nil {
		t.Fatal("sealed empty unit")
	}
	if !p.Pending() {
		t.Fatal("Pending false with recyclable unit")
	}
	p.MarkRecycling(u)
	p.MarkRecycled(u, 3)
	if p.Pending() {
		t.Fatal("Pending true after recycle")
	}
}

func TestUnitBlocksDeterministic(t *testing.T) {
	u := newUnit(0)
	for _, id := range []wire.BlockID{{Ino: 2, Stripe: 1, Index: 0}, {Ino: 1, Stripe: 5, Index: 3}, {Ino: 1, Stripe: 5, Index: 1}} {
		u.insert(id, 0, []byte{1}, Overwrite, false, false)
	}
	b := u.Blocks()
	if b[0].Ino != 1 || b[0].Index != 1 || b[2].Ino != 2 {
		t.Fatalf("order %v", b)
	}
}

func TestPoolMinUnitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(maxUnits=1) did not panic")
		}
	}()
	NewPool(0, Overwrite, 10, 1)
}

func TestGaps(t *testing.T) {
	var b BlockLog
	b.Insert(10, make([]byte, 5), Overwrite)  // [10,15)
	b.Insert(20, make([]byte, 10), Overwrite) // [20,30)
	gaps := b.Gaps(0, 40)
	want := [][2]int64{{0, 10}, {15, 20}, {30, 40}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %v want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps %v want %v", gaps, want)
		}
	}
	if g := b.Gaps(10, 15); g != nil {
		t.Fatalf("covered range has gaps %v", g)
	}
	if g := b.Gaps(100, 110); len(g) != 1 || g[0] != [2]int64{100, 110} {
		t.Fatalf("uncovered range gaps %v", g)
	}
}

func TestRawModeKeepsAllRecords(t *testing.T) {
	var b BlockLog
	b.Raw = true
	for i := 0; i < 10; i++ {
		b.Insert(0, []byte{byte(i)}, Overwrite) // same offset, no merge
	}
	if len(b.Extents()) != 10 {
		t.Fatalf("raw mode merged: %d extents", len(b.Extents()))
	}
	// Overlay must still apply newest-last.
	dst := make([]byte, 1)
	b.Overlay(0, dst)
	if dst[0] != 9 {
		t.Fatalf("raw overlay got %d want 9", dst[0])
	}
	if !b.mightContain(0, 1) {
		t.Fatal("bitmap not set in raw mode")
	}
}

// mkUnit builds a sealed-looking unit holding the given (block, off, data)
// records in order.
func mkUnit(seq uint64, mode MergeMode, raw bool, recs []struct {
	blk  wire.BlockID
	off  int64
	data []byte
}) *Unit {
	u := newUnit(seq)
	for _, r := range recs {
		u.insert(r.blk, r.off, r.data, mode, raw, false)
	}
	return u
}

func TestMergeUnitsOverwriteNewestWins(t *testing.T) {
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	type rec = struct {
		blk  wire.BlockID
		off  int64
		data []byte
	}
	old := mkUnit(0, Overwrite, false, []rec{{blk, 0, []byte{1, 1, 1, 1}}})
	niu := mkUnit(1, Overwrite, false, []rec{{blk, 2, []byte{9, 9}}})
	merged, order := MergeUnits([]*Unit{old, niu}, Overwrite, false)
	if len(order) != 1 || order[0] != blk {
		t.Fatalf("order %v", order)
	}
	exts := merged[blk].Extents()
	if len(exts) != 1 || exts[0].Off != 0 {
		t.Fatalf("extents %v", exts)
	}
	want := []byte{1, 1, 9, 9}
	for i, b := range exts[0].Data {
		if b != want[i] {
			t.Fatalf("merged data %v want %v", exts[0].Data, want)
		}
	}
}

func TestMergeUnitsXORAccumulates(t *testing.T) {
	blk := wire.BlockID{Ino: 2, Stripe: 1, Index: 3}
	type rec = struct {
		blk  wire.BlockID
		off  int64
		data []byte
	}
	a := mkUnit(0, XOR, false, []rec{{blk, 4, []byte{0xf0, 0x0f}}})
	b := mkUnit(1, XOR, false, []rec{{blk, 4, []byte{0xff, 0xff}}, {blk, 6, []byte{5}}})
	merged, _ := MergeUnits([]*Unit{a, b}, XOR, false)
	exts := merged[blk].Extents()
	if len(exts) != 1 || exts[0].Off != 4 || len(exts[0].Data) != 3 {
		t.Fatalf("extents %v", exts)
	}
	if exts[0].Data[0] != 0x0f || exts[0].Data[1] != 0xf0 || exts[0].Data[2] != 5 {
		t.Fatalf("xor merge wrong: %v", exts[0].Data)
	}
}

// TestMergeUnitsSingleAliases: a one-unit non-raw merge must not copy.
func TestMergeUnitsSingleAliases(t *testing.T) {
	blk := wire.BlockID{Ino: 3, Stripe: 0, Index: 0}
	type rec = struct {
		blk  wire.BlockID
		off  int64
		data []byte
	}
	u := mkUnit(0, Overwrite, false, []rec{{blk, 0, []byte{1}}})
	merged, _ := MergeUnits([]*Unit{u}, Overwrite, false)
	if merged[blk] != u.Lookup(blk) {
		t.Fatal("single-unit merge copied the block log")
	}
}

// TestMergeUnitsRawConcatenates: the ablation path must keep every record,
// in unit order then append order.
func TestMergeUnitsRawConcatenates(t *testing.T) {
	blk := wire.BlockID{Ino: 4, Stripe: 0, Index: 1}
	type rec = struct {
		blk  wire.BlockID
		off  int64
		data []byte
	}
	a := mkUnit(0, Overwrite, true, []rec{{blk, 0, []byte{1}}, {blk, 0, []byte{2}}})
	b := mkUnit(1, Overwrite, true, []rec{{blk, 0, []byte{3}}})
	merged, _ := MergeUnits([]*Unit{a, b}, Overwrite, true)
	exts := merged[blk].Extents()
	if len(exts) != 3 {
		t.Fatalf("raw merge collapsed records: %d", len(exts))
	}
	for i, want := range []byte{1, 2, 3} {
		if exts[i].Data[0] != want {
			t.Fatalf("raw merge order wrong at %d: %v", i, exts)
		}
	}
}

// TestMergeUnitsDeterministicOrder: block order must be sorted regardless of
// map iteration.
func TestMergeUnitsDeterministicOrder(t *testing.T) {
	type rec = struct {
		blk  wire.BlockID
		off  int64
		data []byte
	}
	var recs []rec
	for i := 15; i >= 0; i-- {
		recs = append(recs, rec{wire.BlockID{Ino: uint64(i % 4), Stripe: uint32(i / 4), Index: uint16(i)}, 0, []byte{byte(i)}})
	}
	a := mkUnit(0, Overwrite, false, recs)
	b := mkUnit(1, Overwrite, false, recs)
	_, order1 := MergeUnits([]*Unit{a, b}, Overwrite, false)
	_, order2 := MergeUnits([]*Unit{a, b}, Overwrite, false)
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("merge order not deterministic")
		}
	}
	for i := 1; i < len(order1); i++ {
		p, q := order1[i-1], order1[i]
		if p.Ino > q.Ino || (p.Ino == q.Ino && p.Stripe > q.Stripe) {
			t.Fatalf("order not sorted: %v before %v", p, q)
		}
	}
}
