// Package rs implements systematic Reed–Solomon erasure coding over GF(2^8)
// together with the incremental parity-update algebra used by erasure-code
// update schemes (Equations (1)–(5) of the TSUE paper, HPDC'25).
//
// A Code with parameters (K, M) turns K data blocks into M parity blocks via
// an M x K coefficient matrix over GF(2^8) (Vandermonde- or Cauchy-derived,
// Equation (1)). Any K of the K+M blocks reconstruct the rest.
//
// For updates, the incremental form is:
//
//	P'_i = P_i + coef[i][j] * (D'_j - D_j)        (Equation (2))
//
// and multiple data deltas for the same intra-block range across blocks of
// one stripe fold into a single parity delta per parity block
// (Equation (5)). ParityDelta and MergeDataDeltas implement these.
package rs

import (
	"fmt"
	"slices"

	"tsue/internal/gf256"
)

// MatrixKind selects how the encoding matrix is derived.
type MatrixKind int

const (
	// Vandermonde derives the coefficient matrix from an extended
	// (K+M) x K Vandermonde matrix brought to systematic form; this is the
	// classic construction and guarantees any K rows are invertible.
	Vandermonde MatrixKind = iota
	// Cauchy uses a Cauchy matrix directly as the parity coefficients; any
	// square submatrix of a Cauchy matrix is invertible.
	Cauchy
)

func (k MatrixKind) String() string {
	switch k {
	case Vandermonde:
		return "vandermonde"
	case Cauchy:
		return "cauchy"
	default:
		return fmt.Sprintf("MatrixKind(%d)", int(k))
	}
}

// Code is a systematic RS(K, M) erasure code.
type Code struct {
	K, M int
	// coef is the M x K parity coefficient matrix: parity row i is
	// sum_j coef[i][j] * data[j].
	coef *Matrix
	// full is the (K+M) x K generator: identity on top, coef below.
	full *Matrix
}

// New creates an RS(K, M) code. K must be in [1, 128] per wide-stripe limits
// discussed in the paper (ECWide caps K at 128), M in [1, 16], K+M <= 240.
func New(k, m int, kind MatrixKind) (*Code, error) {
	if k < 1 || k > 128 {
		return nil, fmt.Errorf("rs: K=%d out of range [1,128]", k)
	}
	if m < 1 || m > 16 {
		return nil, fmt.Errorf("rs: M=%d out of range [1,16]", m)
	}
	if k+m > 240 {
		return nil, fmt.Errorf("rs: K+M=%d exceeds 240", k+m)
	}
	var coef *Matrix
	switch kind {
	case Vandermonde:
		// Build (K+M) x K Vandermonde, normalize the top KxK block to the
		// identity by right-multiplying with its inverse; the bottom M rows
		// become the systematic parity coefficients.
		v := vandermonde(k+m, k)
		top := v.SubMatrix(0, k, 0, k)
		topInv, err := top.Invert()
		if err != nil {
			return nil, fmt.Errorf("rs: vandermonde top block not invertible: %w", err)
		}
		sys := v.Mul(topInv)
		coef = sys.SubMatrix(k, k+m, 0, k)
	case Cauchy:
		coef = cauchy(m, k)
	default:
		return nil, fmt.Errorf("rs: unknown matrix kind %v", kind)
	}
	full := NewMatrix(k+m, k)
	for i := 0; i < k; i++ {
		full.Set(i, i, 1)
	}
	for i := 0; i < m; i++ {
		copy(full.Row(k+i), coef.Row(i))
	}
	return &Code{K: k, M: m, coef: coef, full: full}, nil
}

// MustNew is New but panics on error; for tests and fixed configs.
func MustNew(k, m int, kind MatrixKind) *Code {
	c, err := New(k, m, kind)
	if err != nil {
		panic(err)
	}
	return c
}

// Coef returns the parity coefficient coef[i][j] applied to data block j for
// parity block i (the "partial derivative" in the paper's Equation (2)).
func (c *Code) Coef(parity, data int) byte {
	return c.coef.At(parity, data)
}

// Encode computes the M parity blocks for the given K data shards. All
// shards must have equal length. parity must contain M slices of the same
// length (they are overwritten).
func (c *Code) Encode(data, parity [][]byte) error {
	if len(data) != c.K {
		return fmt.Errorf("rs: Encode got %d data shards, want %d", len(data), c.K)
	}
	if len(parity) != c.M {
		return fmt.Errorf("rs: Encode got %d parity shards, want %d", len(parity), c.M)
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return fmt.Errorf("rs: data shard %d size %d != %d", i, len(d), size)
		}
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("rs: parity shard %d size %d != %d", i, len(p), size)
		}
	}
	for i, out := range parity {
		row := c.coef.Row(i)
		clear(out)
		for j, d := range data {
			gf256.MulXorSlice(row[j], out, d)
		}
	}
	return nil
}

// ParityDelta computes the parity delta for parity block `parity` caused by
// dataDelta (= Dnew XOR Dold) on data block `data`: coef * dataDelta.
// The result is written into dst, which must be the same length as dataDelta.
func (c *Code) ParityDelta(parity, data int, dst, dataDelta []byte) {
	gf256.MulSlice(c.coef.At(parity, data), dst, dataDelta)
}

// ApplyParityDelta folds a parity delta into a parity region in place:
// parityRegion ^= parityDelta (Equation (2) tail).
func ApplyParityDelta(parityRegion, parityDelta []byte) {
	gf256.XorSlice(parityRegion, parityDelta)
}

// DataDelta computes dst = newData XOR oldData, the data delta of
// Equation (2). Lengths must match. Any of the three may be the same slice
// (dst ≡ oldData, dst ≡ newData, all three); slices that overlap at
// different offsets are not supported.
func DataDelta(dst, newData, oldData []byte) {
	if len(dst) != len(newData) || len(dst) != len(oldData) {
		panic("rs: DataDelta length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	if &dst[0] == &oldData[0] {
		gf256.XorSlice(dst, newData)
		return
	}
	copy(dst, newData) // a no-op move when dst ≡ newData
	gf256.XorSlice(dst, oldData)
}

// MergeDataDeltas folds data deltas from multiple data blocks at the same
// intra-block range into the single parity delta for parity block `parity`
// (Equation (5)): dst ^= sum_j coef[parity][block_j] * delta_j.
// dst must be pre-sized; each delta must have the same length as dst.
// For folding a whole stripe's worth of irregular extents in one pass, see
// FoldDeltas.
func (c *Code) MergeDataDeltas(parity int, dst []byte, blocks []int, deltas [][]byte) {
	if len(blocks) != len(deltas) {
		panic("rs: MergeDataDeltas blocks/deltas length mismatch")
	}
	for i := range deltas {
		if len(deltas[i]) != len(dst) {
			panic("rs: MergeDataDeltas delta length mismatch")
		}
	}
	for i, b := range blocks {
		gf256.MulXorSlice(c.coef.At(parity, b), dst, deltas[i])
	}
}

// Reconstruct recovers missing shards. shards has length K+M: index < K are
// data shards, >= K are parity shards. Missing shards are nil; present
// shards must all share one length. On success every nil shard is replaced
// by its reconstructed content. Returns an error if more than M shards are
// missing.
func (c *Code) Reconstruct(shards [][]byte) error {
	var missing []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		}
	}
	return c.ReconstructSome(shards, missing)
}

// ReconstructSome rebuilds only the shards whose indexes are in want, from
// K of the present ones; every other nil shard stays nil. A shard not in
// want is present unless it is nil, and present shards must all share one
// length. A wanted shard is an output: it is rebuilt in place when its
// length already equals the present shards', and replaced by a new slice
// otherwise. Returns an error if fewer than K shards are present.
func (c *Code) ReconstructSome(shards [][]byte, want []int) error {
	n := c.K + c.M
	if len(shards) != n {
		return fmt.Errorf("rs: Reconstruct got %d shards, want %d", len(shards), n)
	}
	for _, idx := range want {
		if idx < 0 || idx >= n {
			return fmt.Errorf("rs: wanted shard %d out of range [0,%d)", idx, n)
		}
	}
	size := -1
	present := make([]int, 0, n)
	for i, s := range shards {
		if s == nil || slices.Contains(want, i) {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("rs: shard %d size %d != %d", i, len(s), size)
		}
		present = append(present, i)
	}
	if len(want) == 0 {
		return nil
	}
	if len(present) < c.K {
		return fmt.Errorf("rs: %d shards missing, can repair at most %d", n-len(present), c.M)
	}
	// Select K present shards; build the KxK system from their generator rows.
	sel := present[:c.K]
	sys := NewMatrix(c.K, c.K)
	for r, idx := range sel {
		copy(sys.Row(r), c.full.Row(idx))
	}
	inv, err := sys.Invert()
	if err != nil {
		return err
	}
	// Decode matrix rows for the original data blocks: data = inv * selected.
	// For each wanted shard i, its generator row full[i] applied to the
	// decoded data gives the shard: rec_i = full[i] * inv * selected. sel
	// holds only present shards, so each rebuilt shard can be stored as
	// soon as it is complete.
	row := make([]byte, c.K)
	for _, idx := range want {
		// row = full[idx] (1 x K) * inv (K x K) -> 1 x K over selected shards.
		clear(row)
		frow := c.full.Row(idx)
		for j := 0; j < c.K; j++ {
			if f := frow[j]; f != 0 {
				gf256.MulXorSlice(f, row, inv.Row(j))
			}
		}
		// The O(wanted * K * size) shard rebuild dominates.
		rec := shards[idx]
		if len(rec) == size {
			clear(rec)
		} else {
			rec = make([]byte, size)
		}
		for j, srcIdx := range sel {
			gf256.MulXorSlice(row[j], rec, shards[srcIdx])
		}
		shards[idx] = rec
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data shards.
func (c *Code) Verify(data, parity [][]byte) (bool, error) {
	if len(data) != c.K || len(parity) != c.M {
		return false, fmt.Errorf("rs: Verify got %d/%d shards, want %d/%d", len(data), len(parity), c.K, c.M)
	}
	size := len(data[0])
	check := make([][]byte, c.M)
	for i := range check {
		check[i] = make([]byte, size)
	}
	if err := c.Encode(data, check); err != nil {
		return false, err
	}
	for i := range check {
		if len(parity[i]) != size {
			return false, fmt.Errorf("rs: parity shard %d size %d != %d", i, len(parity[i]), size)
		}
		for b := range check[i] {
			if check[i][b] != parity[i][b] {
				return false, nil
			}
		}
	}
	return true, nil
}
