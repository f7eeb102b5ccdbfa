package obs

import (
	"sort"
	"time"
)

// TraceView is one assembled trace: the root span plus every descendant.
type TraceView struct {
	Trace uint64
	Op    OpKind
	Root  Span
	Spans []Span // root included, in recorded order
}

// Duration is the trace's end-to-end time (the root span's extent).
func (tv *TraceView) Duration() time.Duration { return tv.Root.End - tv.Root.Start }

// GroupTraces assembles spans (any order) into complete traces, ascending
// by trace id. Traces with no root span (e.g. a background child that
// outlived the harness snapshot) are dropped.
func GroupTraces(spans []Span) []TraceView {
	byTrace := make(map[uint64]*TraceView)
	var order []uint64
	for _, s := range spans {
		tv, ok := byTrace[s.Trace]
		if !ok {
			tv = &TraceView{Trace: s.Trace, Op: s.Op}
			byTrace[s.Trace] = tv
			order = append(order, s.Trace)
		}
		if s.Parent == 0 {
			tv.Root = s
			tv.Op = s.Op
		}
		tv.Spans = append(tv.Spans, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]TraceView, 0, len(order))
	for _, id := range order {
		if tv := byTrace[id]; tv.Root.ID != 0 {
			out = append(out, *tv)
		}
	}
	return out
}

// sweepEntry is one span prepared for the interval sweep.
type sweepEntry struct {
	span  Span
	depth int
	excl  time.Duration // exclusive time won in the sweep
}

// sweep performs the interval attribution: the root's extent is cut at
// every span boundary and each elementary interval is charged to the
// deepest span covering it (ties: latest End, then highest ID). Because
// every interval has exactly one winner (the root covers everything), the
// per-span exclusive times — and hence the per-stage sums — add up to the
// root duration exactly.
func (tv *TraceView) sweep() []sweepEntry {
	depth := make(map[uint64]int, len(tv.Spans))
	parent := make(map[uint64]uint64, len(tv.Spans))
	for _, s := range tv.Spans {
		parent[s.ID] = s.Parent
	}
	var depthOf func(id uint64) int
	depthOf = func(id uint64) int {
		if d, ok := depth[id]; ok {
			return d
		}
		p := parent[id]
		d := 0
		if p != 0 {
			if _, known := parent[p]; known {
				d = depthOf(p) + 1
			} else {
				// Parent span not captured (e.g. recorded after the
				// snapshot): hang directly under the root.
				d = 1
			}
		}
		depth[id] = d
		return d
	}

	entries := make([]sweepEntry, 0, len(tv.Spans))
	cuts := make([]time.Duration, 0, 2*len(tv.Spans))
	lo, hi := tv.Root.Start, tv.Root.End
	for _, s := range tv.Spans {
		e := sweepEntry{span: s, depth: depthOf(s.ID)}
		// Clip to the root extent; spans entirely outside contribute no
		// boundaries and can never win an interval.
		if e.span.Start < lo {
			e.span.Start = lo
		}
		if e.span.End > hi {
			e.span.End = hi
		}
		entries = append(entries, e)
		if e.span.Start < e.span.End {
			cuts = append(cuts, e.span.Start, e.span.End)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	prev := time.Duration(-1)
	for _, cut := range cuts {
		if cut == prev {
			continue
		}
		if prev >= lo && cut > prev {
			// Elementary interval [prev, cut): pick the winner.
			win := -1
			for i := range entries {
				e := &entries[i]
				if e.span.Start > prev || e.span.End < cut {
					continue
				}
				if win < 0 {
					win = i
					continue
				}
				w := &entries[win]
				if e.depth != w.depth {
					if e.depth > w.depth {
						win = i
					}
					continue
				}
				if e.span.End != w.span.End {
					if e.span.End > w.span.End {
						win = i
					}
					continue
				}
				if e.span.ID > w.span.ID {
					win = i
				}
			}
			if win >= 0 {
				entries[win].excl += cut - prev
			}
		}
		prev = cut
	}
	return entries
}

// Breakdown attributes every instant of the op's end-to-end time to exactly
// one stage. Summing the result reproduces Duration() exactly.
func (tv *TraceView) Breakdown() [NStages]time.Duration {
	var out [NStages]time.Duration
	for _, e := range tv.sweep() {
		if e.span.Stage < NStages {
			out[e.span.Stage] += e.excl
		}
	}
	return out
}

// Dominant returns the critical hop: the node-independent signature
// ("stage:name") of the span that won the most exclusive time, and that
// time. Ties break toward the deeper, later, higher-id span, matching the
// sweep's own ordering.
func (tv *TraceView) Dominant() (string, time.Duration) {
	best := -1
	entries := tv.sweep()
	for i := range entries {
		if best < 0 || entries[i].excl > entries[best].excl {
			best = i
		}
	}
	if best < 0 {
		return "", 0
	}
	e := entries[best]
	return e.span.Stage.String() + ":" + e.span.Name, e.excl
}

// Hops returns the exclusive time of every hop signature ("stage:name")
// in the trace: the sweep's per-span times, summed over the spans that
// share a signature. The values add up to Duration() exactly.
func (tv *TraceView) Hops() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, e := range tv.sweep() {
		if e.excl > 0 {
			out[e.span.Stage.String()+":"+e.span.Name] += e.excl
		}
	}
	return out
}

// SigCount is one critical-path signature with its occurrence count.
type SigCount struct {
	Sig string
	N   int
}

// TopSignatures ranks the dominant-hop signatures of the traces whose
// end-to-end duration is at least thresh, returning up to k entries by
// descending count (signature ascending on ties — deterministic).
func TopSignatures(tvs []TraceView, thresh time.Duration, k int) []SigCount {
	counts := make(map[string]int)
	for i := range tvs {
		if tvs[i].Duration() < thresh {
			continue
		}
		sig, _ := tvs[i].Dominant()
		if sig != "" {
			counts[sig]++
		}
	}
	out := make([]SigCount, 0, len(counts))
	for sig, n := range counts {
		out = append(out, SigCount{Sig: sig, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Sig < out[j].Sig
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
