package update

import (
	"fmt"

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

// Drain merges every pending parity delta into its parity block.
func (e *pl) Drain(p *sim.Proc) error {
	e.recycleAll(p)
	return nil
}

// Settle is Drain for failed == 0: PL's lazy parity log must merge before
// the raw stripe is consistent, which is exactly the recovery debt the
// paper charges it with. A failed node's settle merges only the parity
// blocks of its stripes, then waits out a recycle that took some of them.
func (e *pl) Settle(p *sim.Proc, failed wire.NodeID) error {
	if failed == 0 {
		return e.Drain(p)
	}
	for {
		for _, blk := range e.pendingOn(failed) {
			e.recycleBlock(p, blk)
		}
		if !e.NeedsSettle(failed) {
			return nil
		}
		e.cond.Wait(p)
	}
}

// NeedsSettle reports whether unmerged parity deltas remain (of a failed
// node's stripes, when one is given).
func (e *pl) NeedsSettle(failed wire.NodeID) bool {
	if failed == 0 {
		return e.Dirty()
	}
	return anyOn(&e.base, e.records, failed) || anyOn(&e.base, e.applying, failed)
}

// NeedsSettleRange reports whether a parity block of s has an unmerged
// delta overlapping [off, end), or a recycle that took its records (of any
// range) still running.
func (e *pl) NeedsSettleRange(s wire.StripeID, off, end int64) bool {
	for _, blk := range e.stripeBlocks(s) {
		if e.applying[blk] > 0 {
			return true
		}
		for _, r := range e.records[blk] {
			if r.off < end && off < r.off+int64(len(r.delta)) {
				return true
			}
		}
	}
	return false
}

// pendingOn returns, in block order, the parity blocks with unmerged deltas
// whose stripe has a block on node.
func (e *pl) pendingOn(node wire.NodeID) []wire.BlockID {
	var blks []wire.BlockID
	for blk := range e.records {
		//lint:allow maporder(the keys are sorted below)
		if e.placedOn(blk.StripeID(), node) {
			blks = append(blks, blk)
		}
	}
	sortBlocks(blks)
	return blks
}

// Dirty reports whether unmerged parity deltas remain.
func (e *pl) Dirty() bool { return len(e.records) > 0 }

// MemBytes returns the in-memory parity-log footprint.
func (e *pl) MemBytes() int64 { return e.logBytes }

// PeakMemBytes returns the high-water parity-log footprint.
func (e *pl) PeakMemBytes() int64 { return e.peak }
