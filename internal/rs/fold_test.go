package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"tsue/internal/gf256"
)

// foldRef is the naive per-extent reference for FoldDeltas: multiply each
// extent for each parity and XOR-accumulate into a flat per-parity image.
func foldRef(c *Code, extents []DeltaExtent, span int64) [][]byte {
	out := make([][]byte, c.M)
	for i := range out {
		out[i] = make([]byte, span)
		for _, e := range extents {
			tmp := make([]byte, len(e.Data))
			gf256.MulSliceRef(c.Coef(i, e.Block), tmp, e.Data)
			gf256.XorSliceRef(out[i][e.Off:e.Off+int64(len(e.Data))], tmp)
		}
	}
	return out
}

// checkFold asserts that FoldDeltas(extents) returns M offset-sorted,
// non-overlapping rows whose flat images equal foldRef's, and returns them.
func checkFold(t *testing.T, c *Code, extents []DeltaExtent, span int) [][]Extent {
	t.Helper()
	want := foldRef(c, extents, int64(span))
	got := c.FoldDeltas(extents)
	if len(got) != c.M {
		t.Fatalf("FoldDeltas returned %d parity rows, want %d", len(got), c.M)
	}
	for i := range got {
		img := make([]byte, span)
		var prevEnd int64 = -1
		for _, ext := range got[i] {
			if ext.Off < prevEnd {
				t.Fatalf("parity %d extents overlap or unsorted", i)
			}
			prevEnd = ext.End()
			copy(img[ext.Off:], ext.Data)
		}
		if !bytes.Equal(img, want[i]) {
			t.Fatalf("FoldDeltas parity %d diverges from naive fold", i)
		}
	}
	return got
}

// randExtents draws n extents shorter than maxLen bytes on random blocks of
// c, each starting before span-maxLen.
func randExtents(rng *rand.Rand, c *Code, n, maxLen, span int) []DeltaExtent {
	extents := make([]DeltaExtent, 0, n)
	for e := 0; e < n; e++ {
		size := rng.Intn(maxLen)
		off := int64(rng.Intn(span - maxLen))
		data := make([]byte, size)
		rng.Read(data)
		extents = append(extents, DeltaExtent{Block: rng.Intn(c.K), Off: off, Data: data})
	}
	return extents
}

// TestFoldDeltasMatchesNaive: the one-pass batched fold must equal the
// per-extent reference, including overlapping, adjacent, repeated-block and
// empty extents.
func TestFoldDeltasMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := MustNew(4, 3, Vandermonde)
	const span = 1 << 16
	for trial := 0; trial < 30; trial++ {
		checkFold(t, c, randExtents(rng, c, 1+rng.Intn(12), 5000, span), span)
	}
}

// TestFoldDeltasLargeMatchesNaive: folds whose output volume (M rows times
// the coverage union) is at least 128 KiB — a recycler batch of large
// extents — must equal the reference too.
func TestFoldDeltasLargeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	c := MustNew(6, 4, Vandermonde)
	const span = 1 << 18
	for trial := 0; trial < 4; trial++ {
		extents := randExtents(rng, c, 4+rng.Intn(8), 64<<10, span)
		var vol int
		for _, row := range checkFold(t, c, extents, span) {
			for _, ext := range row {
				vol += len(ext.Data)
			}
		}
		if vol < 128<<10 {
			t.Fatalf("trial %d folds only %d bytes; the case needs >= 128 KiB", trial, vol)
		}
	}
}

// TestFoldDeltasMergesAdjacent: two touching extents must come back as one.
func TestFoldDeltasMergesAdjacent(t *testing.T) {
	c := MustNew(4, 2, Vandermonde)
	out := c.FoldDeltas([]DeltaExtent{
		{Block: 0, Off: 0, Data: []byte{1, 2, 3, 4}},
		{Block: 1, Off: 4, Data: []byte{5, 6}},
		{Block: 2, Off: 100, Data: []byte{7}},
	})
	for i, row := range out {
		if len(row) != 2 {
			t.Fatalf("parity %d: got %d extents, want 2 (adjacent ranges must merge)", i, len(row))
		}
		if row[0].Off != 0 || len(row[0].Data) != 6 || row[1].Off != 100 || len(row[1].Data) != 1 {
			t.Fatalf("parity %d: wrong extent geometry %+v", i, row)
		}
	}
}

// TestFoldDeltasEdgeCases: empty input, zero-length extents, out-of-range
// block panic.
func TestFoldDeltasEdgeCases(t *testing.T) {
	c := MustNew(3, 2, Cauchy)
	if out := c.FoldDeltas(nil); len(out) != 2 || out[0] != nil {
		t.Fatal("empty fold must return M empty rows")
	}
	out := c.FoldDeltas([]DeltaExtent{{Block: 0, Off: 9, Data: nil}})
	for _, row := range out {
		if len(row) != 0 {
			t.Fatal("zero-length extents must fold to nothing")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range block did not panic")
		}
	}()
	c.FoldDeltas([]DeltaExtent{{Block: 3, Off: 0, Data: []byte{1}}})
}
