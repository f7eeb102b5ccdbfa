package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tsue/internal/gf256"
)

func randShards(rng *rand.Rand, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func makeParity(m, size int) [][]byte {
	out := make([][]byte, m)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

func TestNewRejectsBadParams(t *testing.T) {
	cases := []struct{ k, m int }{
		{0, 2}, {-1, 2}, {129, 2}, {4, 0}, {4, 17}, {128, 16}, // 128+16=144 ok actually
	}
	for _, c := range cases {
		_, err := New(c.k, c.m, Vandermonde)
		if c.k == 128 && c.m == 16 {
			if err != nil {
				t.Errorf("New(128,16) should succeed: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("New(%d,%d) should fail", c.k, c.m)
		}
	}
}

func TestEncodeDecodeAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		for _, cfg := range []struct{ k, m int }{{2, 1}, {4, 2}, {6, 2}, {6, 3}, {6, 4}, {12, 2}, {12, 3}, {12, 4}, {16, 4}} {
			c := MustNew(cfg.k, cfg.m, kind)
			size := 1 + rng.Intn(512)
			data := randShards(rng, cfg.k, size)
			parity := makeParity(cfg.m, size)
			if err := c.Encode(data, parity); err != nil {
				t.Fatalf("%v RS(%d,%d): %v", kind, cfg.k, cfg.m, err)
			}
			ok, err := c.Verify(data, parity)
			if err != nil || !ok {
				t.Fatalf("%v RS(%d,%d): verify failed: %v", kind, cfg.k, cfg.m, err)
			}
		}
	}
}

// largeShard is a shard size in the range of a recycler's merged extent or
// a recovery read; the large-shard tests use multiples of it, plus odd
// tails.
const largeShard = 64 << 10

// encodeRef is Encode built from the scalar gf256 reference kernel.
func encodeRef(c *Code, data [][]byte) [][]byte {
	parity := makeParity(c.M, len(data[0]))
	for i := range parity {
		for j, d := range data {
			gf256.MulXorSliceRef(c.Coef(i, j), parity[i], d)
		}
	}
	return parity
}

// TestEncodeMatchesScalarRef: Encode must equal a scalar-reference encode
// from 1 byte to several large shards, odd lengths included, and must
// overwrite whatever the parity shards held.
func TestEncodeMatchesScalarRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := MustNew(6, 3, Vandermonde)
	for _, size := range []int{1, 100, 4096, largeShard - 1, 2*largeShard + 13, 5 * largeShard} {
		data := randShards(rng, 6, size)
		parity := randShards(rng, 3, size)
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		for i, want := range encodeRef(c, data) {
			if !bytes.Equal(parity[i], want) {
				t.Fatalf("size %d: parity %d differs from the scalar reference", size, i)
			}
		}
	}
}

// TestEncodeVerifyRoundTripLarge: Verify accepts a large-shard encode and
// catches a single flipped bit.
func TestEncodeVerifyRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := MustNew(8, 4, Vandermonde)
	size := 4 * largeShard
	data := randShards(rng, 8, size)
	parity := randShards(rng, 4, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("verify after encode: ok=%v err=%v", ok, err)
	}
	parity[2][size/2] ^= 1
	ok, err = c.Verify(data, parity)
	if err != nil || ok {
		t.Fatalf("verify missed corruption: ok=%v err=%v", ok, err)
	}
}

// TestReconstructLargeShards: rebuilding two data shards and one parity
// shard of a large stripe must recover them byte-identical.
func TestReconstructLargeShards(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := MustNew(5, 3, Cauchy)
	size := 3*largeShard + 7
	data := randShards(rng, 5, size)
	parity := randShards(rng, 3, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 8)
	for i := 0; i < 5; i++ {
		shards[i] = append([]byte(nil), data[i]...)
	}
	for i := 0; i < 3; i++ {
		shards[5+i] = append([]byte(nil), parity[i]...)
	}
	shards[1], shards[4], shards[6] = nil, nil, nil
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], data[1]) || !bytes.Equal(shards[4], data[4]) {
		t.Fatal("reconstruct corrupted data shards")
	}
	if !bytes.Equal(shards[6], parity[1]) {
		t.Fatal("reconstruct corrupted parity shard")
	}
}

// TestMergeDataDeltasLargeShards pins MergeDataDeltas over a large range to
// a scalar-reference accumulation.
func TestMergeDataDeltasLargeShards(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := MustNew(6, 4, Vandermonde)
	size := 2*largeShard + 33
	deltas := randShards(rng, 3, size)
	blocks := []int{0, 2, 5}
	for parity := 0; parity < 4; parity++ {
		dst := make([]byte, size)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		for i, b := range blocks {
			gf256.MulXorSliceRef(c.Coef(parity, b), want, deltas[i])
		}
		c.MergeDataDeltas(parity, dst, blocks, deltas)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MergeDataDeltas diverges for parity %d", parity)
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := MustNew(6, 3, Vandermonde)
	size := 128
	data := randShards(rng, 6, size)
	parity := makeParity(3, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, 9)
	for i := 0; i < 6; i++ {
		orig[i] = data[i]
	}
	for i := 0; i < 3; i++ {
		orig[6+i] = parity[i]
	}
	// All erasure patterns of up to 3 shards.
	for a := 0; a < 9; a++ {
		for b := a; b < 9; b++ {
			for d := b; d < 9; d++ {
				shards := make([][]byte, 9)
				for i := range shards {
					shards[i] = append([]byte(nil), orig[i]...)
				}
				shards[a], shards[b], shards[d] = nil, nil, nil
				if err := c.Reconstruct(shards); err != nil {
					t.Fatalf("erasures (%d,%d,%d): %v", a, b, d, err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], orig[i]) {
						t.Fatalf("erasures (%d,%d,%d): shard %d mismatch", a, b, d, i)
					}
				}
			}
		}
	}
}

func TestReconstructTooManyMissing(t *testing.T) {
	c := MustNew(4, 2, Cauchy)
	shards := make([][]byte, 6)
	for i := 3; i < 6; i++ {
		shards[i] = make([]byte, 8)
	}
	// 3 missing > M=2
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("expected error with too many missing shards")
	}
}

func TestReconstructNoneMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := MustNew(3, 2, Vandermonde)
	data := randShards(rng, 3, 16)
	parity := makeParity(2, 16)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalEqualsReencode is the core update invariant: applying
// Equation (2) parity deltas must equal a full re-encode.
func TestIncrementalEqualsReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		c := MustNew(6, 4, kind)
		size := 256
		data := randShards(rng, 6, size)
		parity := makeParity(4, size)
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		// Random in-place update of a sub-range of one data block.
		for trial := 0; trial < 30; trial++ {
			j := rng.Intn(6)
			off := rng.Intn(size)
			n := 1 + rng.Intn(size-off)
			newData := make([]byte, n)
			rng.Read(newData)
			old := append([]byte(nil), data[j][off:off+n]...)
			delta := make([]byte, n)
			DataDelta(delta, newData, old)
			copy(data[j][off:off+n], newData)
			for p := 0; p < 4; p++ {
				pd := make([]byte, n)
				c.ParityDelta(p, j, pd, delta)
				ApplyParityDelta(parity[p][off:off+n], pd)
			}
		}
		ok, err := c.Verify(data, parity)
		if err != nil || !ok {
			t.Fatalf("%v: incremental updates diverged from re-encode", kind)
		}
	}
}

// TestMergedDeltasEqualReencode checks Equation (5): merging deltas from
// multiple blocks at the same range into one parity delta per parity block.
func TestMergedDeltasEqualReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := MustNew(6, 3, Vandermonde)
	size := 128
	data := randShards(rng, 6, size)
	parity := makeParity(3, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	// Update the same range in blocks 0, 2, 4.
	off, n := 32, 48
	blocks := []int{0, 2, 4}
	deltas := make([][]byte, len(blocks))
	for i, b := range blocks {
		newData := make([]byte, n)
		rng.Read(newData)
		deltas[i] = make([]byte, n)
		DataDelta(deltas[i], newData, data[b][off:off+n])
		copy(data[b][off:off+n], newData)
	}
	for p := 0; p < 3; p++ {
		merged := make([]byte, n)
		c.MergeDataDeltas(p, merged, blocks, deltas)
		ApplyParityDelta(parity[p][off:off+n], merged)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatal("merged deltas diverged from re-encode")
	}
}

// TestRepeatedUpdateLatestWins checks Equation (3)/(4): folding N deltas for
// the same location equals one delta from original to final data.
func TestRepeatedUpdateLatestWins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := MustNew(4, 2, Cauchy)
	size := 64
	data := randShards(rng, 4, size)
	parity := makeParity(2, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), data[1]...)
	// Apply 5 successive updates to block 1, accumulating deltas by XOR.
	acc := make([]byte, size)
	for u := 0; u < 5; u++ {
		newData := make([]byte, size)
		rng.Read(newData)
		d := make([]byte, size)
		DataDelta(d, newData, data[1])
		for i := range acc {
			acc[i] ^= d[i]
		}
		copy(data[1], newData)
	}
	// acc must equal final XOR original (Equation (4)).
	want := make([]byte, size)
	DataDelta(want, data[1], orig)
	if !bytes.Equal(acc, want) {
		t.Fatal("accumulated deltas != final-original delta")
	}
	for p := 0; p < 2; p++ {
		pd := make([]byte, size)
		c.ParityDelta(p, 1, pd, acc)
		ApplyParityDelta(parity[p], pd)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatal("Equation (4) parity update diverged")
	}
}

func TestPropertyEncodeReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		m := 1 + r.Intn(4)
		kind := MatrixKind(r.Intn(2))
		c := MustNew(k, m, kind)
		size := 1 + r.Intn(256)
		data := randShards(r, k, size)
		parity := makeParity(m, size)
		if err := c.Encode(data, parity); err != nil {
			return false
		}
		shards := make([][]byte, k+m)
		for i := 0; i < k; i++ {
			shards[i] = append([]byte(nil), data[i]...)
		}
		for i := 0; i < m; i++ {
			shards[k+i] = append([]byte(nil), parity[i]...)
		}
		// Erase up to m random shards.
		ne := 1 + r.Intn(m)
		for e := 0; e < ne; e++ {
			shards[r.Intn(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], data[i]) {
				return false
			}
		}
		for i := 0; i < m; i++ {
			if !bytes.Equal(shards[k+i], parity[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		// Random invertible matrix: retry until invertible.
		var m *Matrix
		for {
			m = NewMatrix(n, n)
			rng.Read(m.Data)
			if _, err := m.Invert(); err == nil {
				break
			}
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatal(err)
		}
		prod := m.Mul(inv)
		id := Identity(n)
		if !bytes.Equal(prod.Data, id.Data) {
			t.Fatalf("m * inv(m) != I for n=%d", n)
		}
	}
}

func TestSingularMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2) // duplicate row
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestEncodeSizeMismatch(t *testing.T) {
	c := MustNew(2, 1, Vandermonde)
	data := [][]byte{make([]byte, 4), make([]byte, 8)}
	parity := [][]byte{make([]byte, 4)}
	if err := c.Encode(data, parity); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestCoefStability(t *testing.T) {
	// Same params must give the same coefficients (placement determinism).
	a := MustNew(6, 3, Vandermonde)
	b := MustNew(6, 3, Vandermonde)
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			if a.Coef(i, j) != b.Coef(i, j) {
				t.Fatal("coefficients not deterministic")
			}
		}
	}
}

func TestCauchyAnySquareInvertible(t *testing.T) {
	// Any square submatrix of a Cauchy matrix must be invertible; spot-check.
	m := cauchy(4, 6)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4)
		rows := rng.Perm(4)[:n]
		cols := rng.Perm(6)[:n]
		sub := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				sub.Set(r, c, m.At(rows[r], cols[c]))
			}
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("cauchy %dx%d submatrix singular", n, n)
		}
	}
}

func BenchmarkEncodeRS6_4_1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	c := MustNew(6, 4, Vandermonde)
	size := 1 << 20 / 6
	data := randShards(rng, 6, size)
	parity := makeParity(4, size)
	b.SetBytes(int64(size * 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParityDelta4K(b *testing.B) {
	c := MustNew(6, 4, Vandermonde)
	delta := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(16)).Read(delta)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ParityDelta(2, 3, dst, delta)
	}
}

// dataDeltaRef is the byte-at-a-time loop DataDelta used to be.
func dataDeltaRef(dst, newData, oldData []byte) {
	for i := range dst {
		dst[i] = newData[i] ^ oldData[i]
	}
}

// TestDataDeltaMatchesLoop pins the kernel-backed DataDelta to the loop on
// every documented aliasing: three disjoint slices, dst ≡ oldData (the
// in-place RMW), dst ≡ newData, newData ≡ oldData, and all three the same —
// at lengths on both sides of the word and vector widths.
func TestDataDeltaMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 4095, 4096, 4099} {
		a, b := make([]byte, n), make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		want := make([]byte, n)
		dataDeltaRef(want, a, b)
		clone := func(s []byte) []byte { return append([]byte{}, s...) }

		dst := make([]byte, n)
		rng.Read(dst) // stale content must not leak into the result
		newData, oldData := clone(a), clone(b)
		DataDelta(dst, newData, oldData)
		if !bytes.Equal(dst, want) || !bytes.Equal(newData, a) || !bytes.Equal(oldData, b) {
			t.Fatalf("n=%d disjoint: wrong delta or an input was modified", n)
		}

		newData, oldData = clone(a), clone(b)
		DataDelta(oldData, newData, oldData)
		if !bytes.Equal(oldData, want) || !bytes.Equal(newData, a) {
			t.Fatalf("n=%d dst≡old: wrong delta or newData modified", n)
		}

		newData, oldData = clone(a), clone(b)
		DataDelta(newData, newData, oldData)
		if !bytes.Equal(newData, want) || !bytes.Equal(oldData, b) {
			t.Fatalf("n=%d dst≡new: wrong delta or oldData modified", n)
		}

		zero := make([]byte, n)
		dst, newData = clone(b), clone(a)
		DataDelta(dst, newData, newData)
		if !bytes.Equal(dst, zero) || !bytes.Equal(newData, a) {
			t.Fatalf("n=%d new≡old: delta of a slice with itself is not zero", n)
		}
		newData = clone(a)
		DataDelta(newData, newData, newData)
		if !bytes.Equal(newData, zero) {
			t.Fatalf("n=%d all three aliased: not zero", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	DataDelta(make([]byte, 4), make([]byte, 4), make([]byte, 5))
}

// reconstructRef is Reconstruct as it stood before ReconstructSome: every
// nil shard is rebuilt into a new slice. TestReconstructSomeMatchesReference
// holds both entry points to it.
func reconstructRef(c *Code, shards [][]byte) error {
	n := c.K + c.M
	var present, missing []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		} else {
			present = append(present, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > c.M || len(present) < c.K || len(shards) != n {
		return errors.New("rs: too many missing")
	}
	size := len(shards[present[0]])
	sel := present[:c.K]
	sys := NewMatrix(c.K, c.K)
	for r, idx := range sel {
		copy(sys.Row(r), c.full.Row(idx))
	}
	inv, err := sys.Invert()
	if err != nil {
		return err
	}
	for _, idx := range missing {
		row := make([]byte, c.K)
		frow := c.full.Row(idx)
		for j := 0; j < c.K; j++ {
			if f := frow[j]; f != 0 {
				gf256.MulXorSlice(f, row, inv.Row(j))
			}
		}
		rec := make([]byte, size)
		for j, srcIdx := range sel {
			gf256.MulXorSlice(row[j], rec, shards[srcIdx])
		}
		shards[idx] = rec
	}
	return nil
}

// TestReconstructSomeMatchesReference is a differential test over random
// K, M, matrix kinds and erasure sets: Reconstruct matches reconstructRef
// on every shard, and ReconstructSome over a random subset of the erasures
// rebuilds exactly that subset, byte-equal to the reference, whether a
// wanted output is nil or a dirty buffer of the right length rebuilt in
// place, and leaves every other erased shard nil.
func TestReconstructSomeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 400; iter++ {
		k, m := 1+rng.Intn(12), 1+rng.Intn(5)
		kind := MatrixKind(rng.Intn(2))
		c := MustNew(k, m, kind)
		size := 1 + rng.Intn(300)
		data := randShards(rng, k, size)
		parity := makeParity(m, size)
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		orig := append(append([][]byte{}, data...), parity...)
		erased := rng.Perm(k + m)[:rng.Intn(m+1)]
		copyWith := func(nilled []int) [][]byte {
			s := make([][]byte, k+m)
			for i := range s {
				s[i] = append([]byte(nil), orig[i]...)
			}
			for _, i := range nilled {
				s[i] = nil
			}
			return s
		}
		ref, got := copyWith(erased), copyWith(erased)
		if err := reconstructRef(c, ref); err != nil {
			t.Fatalf("K=%d M=%d %v erased %v: reference: %v", k, m, kind, erased, err)
		}
		if err := c.Reconstruct(got); err != nil {
			t.Fatalf("K=%d M=%d %v erased %v: %v", k, m, kind, erased, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], ref[i]) || !bytes.Equal(got[i], orig[i]) {
				t.Fatalf("K=%d M=%d %v erased %v: Reconstruct shard %d differs", k, m, kind, erased, i)
			}
		}

		var want []int
		for _, i := range erased {
			if rng.Intn(2) == 0 {
				want = append(want, i)
			}
		}
		some := copyWith(erased)
		for _, i := range want {
			if rng.Intn(2) == 0 {
				some[i] = make([]byte, size)
				rng.Read(some[i]) // a dirty output buffer, rebuilt in place
			}
		}
		inPlace := make(map[int][]byte)
		for _, i := range want {
			inPlace[i] = some[i]
		}
		if err := c.ReconstructSome(some, want); err != nil {
			t.Fatalf("K=%d M=%d %v want %v of %v: %v", k, m, kind, want, erased, err)
		}
		for _, i := range erased {
			wanted := slices.Contains(want, i)
			switch {
			case wanted && !bytes.Equal(some[i], ref[i]):
				t.Fatalf("K=%d M=%d %v want %v: shard %d differs from the reference", k, m, kind, want, i)
			case wanted && inPlace[i] != nil && &some[i][0] != &inPlace[i][0]:
				t.Fatalf("K=%d M=%d %v want %v: shard %d not rebuilt in place", k, m, kind, want, i)
			case !wanted && some[i] != nil:
				t.Fatalf("K=%d M=%d %v want %v: unwanted shard %d was filled", k, m, kind, want, i)
			}
		}
	}
}

// TestReconstructSomeRejects covers the errors: too few present shards
// (a wanted shard does not count as present) and a wanted index out of
// range.
func TestReconstructSomeRejects(t *testing.T) {
	c := MustNew(4, 2, Vandermonde)
	shards := make([][]byte, 6)
	for i := 1; i < 6; i++ {
		shards[i] = make([]byte, 8)
	}
	if err := c.ReconstructSome(shards, []int{0, 1, 2}); err == nil {
		t.Fatal("three of six shards present, K=4: no error")
	}
	if err := c.ReconstructSome(shards, []int{6}); err == nil {
		t.Fatal("wanted shard 6 of 6: no error")
	}
}
