// Package logpool implements TSUE's log pool structure (paper §3.2): a FIFO
// queue of fixed-size log units with states EMPTY → RECYCLABLE → RECYCLING →
// RECYCLED, each unit carrying a two-level index (block hash → offset-sorted
// extent list with a page bitmap) that merges repeated and adjacent update
// records. The same structure backs all three log layers; the merge mode
// distinguishes raw-data logs (latest write wins) from delta logs (XOR
// accumulation, Equations (3) and (5)).
//
// The package is a pure data structure: the update engine supplies timing,
// concurrency control, and recycle scheduling around it.
package logpool

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"tsue/internal/gf256"
)

// MergeMode selects how an overlapping insert combines with indexed data.
type MergeMode int

const (
	// Overwrite: the newest data replaces older bytes (DataLog semantics,
	// Equation (4): only the latest update of a location matters).
	Overwrite MergeMode = iota
	// XOR: overlapping bytes accumulate by XOR (DeltaLog and ParityLog
	// semantics, Equation (3): deltas for one location fold into one).
	XOR
)

// Extent is one merged record of a block log: Data covers
// [Off, Off+len(Data)).
type Extent struct {
	Off  int64
	Data []byte
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Off + int64(len(e.Data)) }

// bitmapPage is the granularity of the per-block presence bitmap used to
// short-circuit read-cache lookups (paper §3.3.1).
const bitmapPage = 4096

// BlockLog is the second index level: the merged extents of one block,
// sorted by offset, pairwise non-overlapping and non-adjacent.
//
// With Raw set (the ablation baseline without locality exploitation, paper
// Fig. 7), records are kept as an append-ordered list with no merging; the
// recycler then processes every record individually.
type BlockLog struct {
	extents []Extent
	bitmap  []uint64
	Raw     bool
	// RawAppends counts pre-merge inserts; with len(extents) it quantifies
	// how much locality merging saved.
	RawAppends int
	// lastEnd is where the previous insert ended: an insert starting there
	// continues a sequential run, the one shape worth spare capacity.
	lastEnd int64
	// bytes is the sum of len(Data) over extents, kept by Insert.
	bytes int64
}

func (b *BlockLog) setBitmap(off, end int64) {
	first := off / bitmapPage
	last := (end - 1) / bitmapPage
	for pg := first; pg <= last; pg++ {
		w := int(pg / 64)
		for w >= len(b.bitmap) {
			b.bitmap = append(b.bitmap, 0)
		}
		b.bitmap[w] |= 1 << (pg % 64)
	}
}

// mightContain is a constant-time pre-check: false means no extent touches
// the page range.
func (b *BlockLog) mightContain(off, end int64) bool {
	if end <= off {
		return false
	}
	first := off / bitmapPage
	last := (end - 1) / bitmapPage
	for pg := first; pg <= last; pg++ {
		w := int(pg / 64)
		if w < len(b.bitmap) && b.bitmap[w]&(1<<(pg%64)) != 0 {
			return true
		}
	}
	return false
}

// Insert merges [off, off+len(data)) into the log under the given mode. The
// bytes are copied (or XORed in); data is not retained, whatever the shape
// of the insert.
//
// Insert mutates extent buffers in place, so it may run only on a log
// nothing else reads: the active unit's, or a private merged view under
// construction. Sealed units and extracted logs are immutable (see Extents).
func (b *BlockLog) Insert(off int64, data []byte, mode MergeMode) {
	b.insert(off, data, mode, false)
}

// InsertOwned is Insert for a buffer the caller gives up: data belongs to
// the log from this call on, and the caller — and whoever built the buffer —
// must never read or write it again. An insert that merges with nothing (and
// every raw-mode record) keeps data itself as the extent's buffer instead of
// copying it; an insert that merges still copies or XORs into the log's own
// buffers and lets data go. Contents, boundaries and accounting are exactly
// Insert's. It exists for payloads that were built for one message and moved
// to their receiver (ARCHITECTURE, "Payload ownership"); anything a second
// holder can still see goes through Insert.
func (b *BlockLog) InsertOwned(off int64, data []byte, mode MergeMode) {
	b.insert(off, data, mode, true)
}

// insert is the one body behind Insert and InsertOwned; owned only decides
// whether a record that becomes an extent of its own is copied or kept.
func (b *BlockLog) insert(off int64, data []byte, mode MergeMode, owned bool) {
	if len(data) == 0 {
		return
	}
	if mode != Overwrite && mode != XOR {
		panic(fmt.Sprintf("logpool: unknown merge mode %d", mode))
	}
	b.RawAppends++
	end := off + int64(len(data))
	b.setBitmap(off, end)
	run := off == b.lastEnd
	b.lastEnd = end

	if b.Raw {
		b.extents = append(b.extents, Extent{Off: off, Data: extentBuf(data, owned)})
		b.bytes += int64(len(data))
		return
	}

	// Locate the window of extents overlapping or exactly adjacent to the
	// new range: all i with extents[i].End() >= off && extents[i].Off <= end.
	lo := sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() >= off })
	hi := lo
	for hi < len(b.extents) && b.extents[hi].Off <= end {
		hi++
	}
	if lo == hi {
		// No overlap: plain insert.
		b.extents = append(b.extents, Extent{})
		copy(b.extents[lo+1:], b.extents[lo:])
		b.extents[lo] = Extent{Off: off, Data: extentBuf(data, owned)}
		b.bytes += int64(len(data))
		return
	}
	first := b.extents[lo]
	mergedOff := min(off, first.Off)
	n := max(end, b.extents[hi-1].End()) - mergedOff
	// Every byte of the merged range lies in a window extent or in the new
	// range, so a buffer need not start out zeroed — except under XOR,
	// where the parts of the new range no extent covers accumulate onto 0.
	var buf []byte
	absorb := b.extents[lo:hi]
	b.bytes += n
	for _, e := range absorb {
		b.bytes -= int64(len(e.Data))
	}
	switch {
	case mergedOff == first.Off && n <= int64(cap(first.Data)):
		// The merged range starts where the first extent does and fits its
		// buffer: merge in place, touching only the bytes that change.
		buf = first.Data[:n]
		if mode == XOR {
			clear(buf[len(first.Data):])
		}
		absorb = absorb[1:]
	case run && mergedOff == first.Off:
		// A sequential run outgrew its extent: double, so a run of k
		// appends copies O(k) bytes instead of O(k²). Every other shape
		// (scattered neighbours, prepends, bridges) gets an exact fit —
		// spare room there is mostly wasted on the next reallocation.
		buf = make([]byte, n, 2*n)
	default:
		buf = make([]byte, n)
	}
	for _, e := range absorb {
		copy(buf[e.Off-mergedOff:], e.Data)
	}
	dst := buf[off-mergedOff:][:len(data)]
	if mode == XOR {
		gf256.XorSlice(dst, data)
	} else {
		copy(dst, data)
	}
	b.extents[lo] = Extent{Off: mergedOff, Data: buf}
	b.extents = append(b.extents[:lo+1], b.extents[hi:]...)
}

// extentBuf returns the buffer of a record that becomes an extent as it is:
// a copy, or the record itself when the log owns it. An adopted buffer is
// clipped to its length — a later in-place merge grows an extent into its
// spare capacity, and only the bytes handed over are the log's to write.
func extentBuf(data []byte, owned bool) []byte {
	if owned {
		return data[:len(data):len(data)]
	}
	return append([]byte(nil), data...)
}

// Extents returns the merged extents in offset order. The returned slice
// and its buffers are owned by the log — built by Insert or adopted whole
// through InsertOwned, which makes no difference once they are in — and
// callers must not mutate them. They are stable only once the log can no
// longer see an Insert — its unit is sealed, it was extracted
// (Pool.ExtractActive), or it is a merged view whose construction finished;
// on a log still taking inserts the next Insert may rewrite the buffers in
// place, so copy out (Overlay) instead.
func (b *BlockLog) Extents() []Extent { return b.extents }

// Bytes returns the total indexed (post-merge) byte count.
func (b *BlockLog) Bytes() int64 { return b.bytes }

// Overlay copies every indexed byte intersecting [off, off+len(dst)) onto
// dst (dst[i] corresponds to block offset off+i). In Raw mode records are
// applied in append order so the newest data wins.
func (b *BlockLog) Overlay(off int64, dst []byte) {
	end := off + int64(len(dst))
	if !b.mightContain(off, end) {
		return
	}
	lo := 0
	if !b.Raw {
		lo = sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() > off })
	}
	for i := lo; i < len(b.extents); i++ {
		e := b.extents[i]
		if !b.Raw && e.Off >= end {
			break
		}
		s, t := e.Off, e.End()
		if s < off {
			s = off
		}
		if t > end {
			t = end
		}
		if s >= t {
			continue
		}
		copy(dst[s-off:t-off], e.Data[s-e.Off:t-e.Off])
	}
}

// Touches reports whether any extent overlaps [off, end).
func (b *BlockLog) Touches(off, end int64) bool {
	if !b.mightContain(off, end) {
		return false
	}
	for _, e := range b.extents {
		if e.Off < end && off < e.End() {
			return true
		}
	}
	return false
}

// Gaps returns the maximal sub-intervals of [off, end) NOT covered by any
// extent, in order. Used for insert-if-absent semantics (PARIX original-data
// records: the first value for a location wins).
func (b *BlockLog) Gaps(off, end int64) [][2]int64 {
	iv := b.covers(off, end, nil)
	// Equal starts (raw-mode duplicates) commute under the running maximum
	// below, so the order the sort leaves them in cannot show.
	slices.SortFunc(iv, byStart)
	var gaps [][2]int64
	cur := off
	for _, r := range iv {
		if r[0] > cur {
			gaps = append(gaps, [2]int64{cur, r[0]})
		}
		if r[1] > cur {
			cur = r[1]
		}
	}
	if cur < end {
		gaps = append(gaps, [2]int64{cur, end})
	}
	return gaps
}

// byStart orders [start, end) intervals by start alone.
func byStart(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) }

// covers appends the sub-intervals of [off, end) present in the log to out.
func (b *BlockLog) covers(off, end int64, out [][2]int64) [][2]int64 {
	if !b.mightContain(off, end) {
		return out
	}
	lo := 0
	if !b.Raw {
		lo = sort.Search(len(b.extents), func(i int) bool { return b.extents[i].End() > off })
	}
	for i := lo; i < len(b.extents); i++ {
		if !b.Raw && b.extents[i].Off >= end {
			break
		}
		s, t := b.extents[i].Off, b.extents[i].End()
		if s < off {
			s = off
		}
		if t > end {
			t = end
		}
		if s < t {
			out = append(out, [2]int64{s, t})
		}
	}
	return out
}
