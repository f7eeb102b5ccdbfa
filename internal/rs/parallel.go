package rs

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	//lint:allow obsregistry(real-parallelism codec worker pool below the sim layer; the atomic is work distribution, not a metrics counter)
	"sync/atomic"

	"tsue/internal/gf256"
)

// Codec parallelism. Encode, Reconstruct, MergeDataDeltas and FoldDeltas
// stripe their byte ranges across worker goroutines when shards are large
// enough to amortize the handoff; below the threshold they stay serial.
// Workers are spawned per call and the Workers() bound applies per call —
// concurrent codec calls may together exceed it. The bound itself is
// package-global (SetWorkers) because it is a host-capacity knob, not a
// per-Code property.

// parallelThreshold is the per-call byte volume below which striping is not
// attempted: at gf256 kernel speeds a 64 KiB shard costs only a few
// microseconds, comparable to waking a worker.
const parallelThreshold = 64 << 10

// stripeAlign keeps every stripe boundary cache-line- and vector-aligned so
// parallel workers never share a line and the word kernels keep full-width
// steps.
const stripeAlign = 64

// codecWorkers is the configured worker bound (0 = GOMAXPROCS at call time).
var codecWorkers atomic.Int64

// SetWorkers bounds the codec worker pool to n goroutines per striped call.
// n <= 0 restores the default (GOMAXPROCS). It may be called at any time,
// including concurrently with codec operations; in-flight calls keep the
// bound they started with.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	codecWorkers.Store(int64(n))
}

// Workers reports the current worker bound (the default resolves to
// GOMAXPROCS).
func Workers() int {
	if n := int(codecWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// stripeRanges runs fn(lo, hi) over a partition of [0, size) — on the
// calling goroutine when size is small or the pool is bounded to one
// worker, otherwise on min(Workers(), size/parallelThreshold+1) goroutines
// with aligned boundaries. fn must be safe to run concurrently on disjoint
// ranges.
func stripeRanges(size int, fn func(lo, hi int)) {
	if size <= 0 {
		return
	}
	workers := Workers()
	if max := size/parallelThreshold + 1; workers > max {
		workers = max
	}
	if workers <= 1 || size < 2*parallelThreshold {
		fn(0, size)
		return
	}
	chunk := ((size+workers-1)/workers + stripeAlign - 1) &^ (stripeAlign - 1)
	var wg sync.WaitGroup
	for lo := 0; lo < size; lo += chunk {
		hi := lo + chunk
		if hi > size {
			hi = size
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

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
	var total int64
	for _, s := range merged {
		total += s.end - s.off
	}
	// One fold pass per parity block; parity rows are independent, so they
	// stripe across the worker pool as whole rows (each row already walks
	// every input extent once).
	foldRow := func(i int) {
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
	workers := Workers()
	if workers > c.M {
		workers = c.M
	}
	if workers > 1 && int64(c.M)*total >= 2*parallelThreshold {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < c.M; i += workers {
					foldRow(i)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for i := 0; i < c.M; i++ {
			foldRow(i)
		}
	}
	return out
}
