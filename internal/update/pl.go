package update

import (
	"fmt"
	"slices"

	"tsue/internal/device"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// pl is Parity Logging [Stodolsky et al., ISCA'93]: the data block is
// updated in place (read-modify-write), and the resulting parity deltas are
// appended sequentially to a parity log on each parity OSD. Recycling is
// lazy — deferred until the log exceeds a space threshold (or a drain) —
// which keeps the update path fast but leaves a large merge debt that hurts
// recovery (paper §2.2, §2.3.2).
type pl struct {
	base
	o Options

	log *device.Log
	// records per parity block, in arrival order (PL does not merge).
	records map[wire.BlockID][]plRec
	// applying counts, per parity block, the recycles that took its records
	// and have not folded them in yet; cond is broadcast as each finishes.
	applying map[wire.BlockID]int
	cond     *sim.Cond
	logBytes int64
	peak     int64
	draining bool
}

type plRec struct {
	off int64
	// delta is the received message's payload itself (moved, not copied);
	// it is only ever read, by the recycle that XORs it into the parity.
	delta []byte
	// pos is the record's location in the on-disk log (recycle reads it
	// back with random I/O — PL's recycle inefficiency, §2.2).
	pos int64
}

// anyRec reports whether a record of recs holds bytes in sc's byte range;
// any record does when sc has none.
func (sc Scope) anyRec(recs []plRec) bool {
	return slices.ContainsFunc(recs, func(r plRec) bool {
		return sc.End <= sc.Off || (r.off < sc.End && sc.Off < r.off+int64(len(r.delta)))
	})
}

func newPL(h Host, o Options) *pl {
	return &pl{
		base:     newBase(h),
		o:        o,
		log:      h.Store().Device().NewLog("pl-log", 2*o.RecycleThreshold),
		records:  make(map[wire.BlockID][]plRec),
		applying: make(map[wire.BlockID]int),
		cond:     sim.NewCond(h.Env()),
	}
}

// Name returns "pl".
func (*pl) Name() string { return "pl" }

// Update overwrites the data block in place and appends the parity
// deltas to each parity OSD's log in parallel.
func (e *pl) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte, _ uint32) error {
	return e.logParityDeltas(p, blk, off, data)
}

// Handle appends incoming parity deltas to the local log, recycling when
// the space threshold is crossed.
func (e *pl) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	da, ok := m.(*wire.DeltaAppend)
	if !ok {
		return nil, false
	}
	if da.Kind != wire.KindParityDelta {
		return errAck(fmt.Errorf("pl: unexpected delta kind %d", da.Kind)), true
	}
	pblk := e.parityBlock(da.Blk.StripeID(), int(da.ParityIdx))
	// Sequential append to the local parity log (memory + SSD).
	fin := e.logSpan(p, "log:append:pl")
	pos := e.log.Append(p, int64(len(da.Data))+24)
	fin()
	// A parity delta was built for this one message (mulDelta in Update):
	// the record keeps the buffer instead of copying it.
	e.records[pblk] = append(e.records[pblk], plRec{off: da.Off, delta: da.Data, pos: pos})
	e.logBytes += int64(len(da.Data))
	if e.logBytes > e.peak {
		e.peak = e.logBytes
	}
	if e.logBytes >= e.o.RecycleThreshold && !e.draining {
		e.recycleAll(p)
	}
	return wire.OK, true
}

// recycleAll merges every pending parity delta into its parity block. Each
// record costs a random read of the on-disk log plus a read-modify-write of
// the parity region.
func (e *pl) recycleAll(p *sim.Proc) {
	e.draining = true
	defer func() { e.draining = false }()
	blks := make([]wire.BlockID, 0, len(e.records))
	for b := range e.records {
		blks = append(blks, b)
	}
	sortBlocks(blks)
	for _, blk := range blks {
		e.recycleBlock(p, blk)
	}
	e.log.Reset()
}

// recycleBlock merges one parity block's pending deltas into it. PL keeps
// no merging index: every record costs a random read of the on-disk log
// plus an individual parity RMW — the recycle inefficiency the paper
// attributes to PL (§2.2).
func (e *pl) recycleBlock(p *sim.Proc, blk wire.BlockID) {
	recs := e.records[blk]
	if len(recs) == 0 {
		return
	}
	delete(e.records, blk)
	e.applying[blk]++
	for _, r := range recs {
		e.log.Read(p, r.pos, int64(len(r.delta))+24)
		e.logBytes -= int64(len(r.delta))
		if err := e.applyParityDelta(p, blk, r.off, r.delta); err != nil {
			// Parity blocks always exist for preloaded stripes; surface
			// loudly in tests.
			panic("pl: recycle: " + err.Error())
		}
	}
	if e.applying[blk]--; e.applying[blk] == 0 {
		delete(e.applying, blk)
	}
	e.cond.Broadcast()
}

// Merge merges the parity deltas in scope sc into their parity blocks.
// Over every stripe it recycles the whole log, which is exactly the
// recovery debt the paper charges PL with. A narrower scope recycles only
// the parity blocks holding a delta in it, then waits out a recycle that
// took some of them.
func (e *pl) Merge(p *sim.Proc, sc Scope) error {
	if sc.every() {
		e.recycleAll(p)
		return nil
	}
	for {
		for _, blk := range keysIn(&e.base, sc, e.records, sc.anyRec) {
			e.recycleBlock(p, blk)
		}
		if !e.Pending(sc) {
			return nil
		}
		e.cond.Wait(p)
	}
}

// Pending reports whether a parity block in scope sc has an unmerged delta
// in it, or a recycle that took its records (of any range) still running.
func (e *pl) Pending(sc Scope) bool {
	return anyIn(&e.base, sc, e.records, sc.anyRec) || anyIn(&e.base, sc, e.applying, always[int])
}

// MemBytes returns the in-memory parity-log footprint.
func (e *pl) MemBytes() int64 { return e.logBytes }

// PeakMemBytes returns the high-water parity-log footprint.
func (e *pl) PeakMemBytes() int64 { return e.peak }
