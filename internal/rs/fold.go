package rs

import (
	"cmp"
	"slices"
	"sort"

	"tsue/internal/gf256"
)

// DeltaExtent is one data-delta extent within a stripe: Data covers
// [Off, Off+len(Data)) of data block Block (= Dnew XOR Dold for that range).
type DeltaExtent struct {
	Block int
	Off   int64
	Data  []byte
}

// Extent is one contiguous parity-delta range produced by FoldDeltas.
type Extent struct {
	Off  int64
	Data []byte
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Off + int64(len(e.Data)) }

// FoldDeltas folds a whole stripe's data-delta extents into per-parity
// parity-delta extents in one pass — the batched form of Equation (5):
// for every parity block i the result accumulates
// sum_j coef[i][block_j] * delta_j over all input extents, with
// overlapping and adjacent input ranges merged into single output extents.
// The returned slice has one entry per parity block, each offset-sorted and
// non-overlapping. Input extents may overlap each other arbitrarily and may
// repeat blocks; their Data is only read. Blocks must be in [0, K).
func (c *Code) FoldDeltas(extents []DeltaExtent) [][]Extent {
	out := make([][]Extent, c.M)
	if len(extents) == 0 {
		return out
	}
	for _, e := range extents {
		if e.Block < 0 || e.Block >= c.K {
			panic("rs: FoldDeltas block index out of range")
		}
	}
	// Coverage union: the merged output ranges shared by every parity block.
	type span struct{ off, end int64 }
	spans := make([]span, 0, len(extents))
	for _, e := range extents {
		if len(e.Data) > 0 {
			spans = append(spans, span{e.Off, e.Off + int64(len(e.Data))})
		}
	}
	if len(spans) == 0 {
		return out
	}
	// Spans with equal starts may sort either way: the union below extends
	// the last span to the running maximum of the ends, whatever their order.
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.off, b.off) })
	merged := spans[:1]
	for _, s := range spans[1:] {
		if last := &merged[len(merged)-1]; s.off <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
		} else {
			merged = append(merged, s)
		}
	}
	// Locate each extent's coverage span once (every input extent lies
	// inside exactly one, by construction of the union); the mapping is
	// shared by all parity rows.
	spanIdx := make([]int, len(extents))
	for j, e := range extents {
		if len(e.Data) == 0 {
			spanIdx[j] = -1
			continue
		}
		spanIdx[j] = sort.Search(len(merged), func(i int) bool { return merged[i].end > e.Off })
	}
	// One fold pass per parity block, each walking every input extent once.
	for i := range out {
		row := make([]Extent, len(merged))
		for k, s := range merged {
			row[k] = Extent{Off: s.off, Data: make([]byte, s.end-s.off)}
		}
		for j, e := range extents {
			if spanIdx[j] < 0 {
				continue
			}
			dst := row[spanIdx[j]]
			gf256.MulXorSlice(c.coef.At(i, e.Block), dst.Data[e.Off-dst.Off:e.Off-dst.Off+int64(len(e.Data))], e.Data)
		}
		out[i] = row
	}
	return out
}
