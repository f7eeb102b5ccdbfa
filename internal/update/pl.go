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
	records  map[wire.BlockID][]plRec
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
		base:    newBase(h),
		o:       o,
		log:     h.Store().Device().NewLog("pl-log", 2*o.RecycleThreshold),
		records: make(map[wire.BlockID][]plRec),
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
		recs := e.records[blk]
		delete(e.records, blk)
		// PL keeps no merging index: every record costs a random read of
		// the on-disk log plus an individual parity RMW — the recycle
		// inefficiency the paper attributes to PL (§2.2).
		for _, r := range recs {
			e.log.Read(p, r.pos, int64(len(r.delta))+24)
			e.logBytes -= int64(len(r.delta))
			if err := e.applyParityDelta(p, blk, r.off, r.delta); err != nil {
				// Parity blocks always exist for preloaded stripes; surface
				// loudly in tests.
				panic("pl: recycle: " + err.Error())
			}
		}
	}
	e.log.Reset()
}

// Drain merges every pending parity delta into its parity block.
func (e *pl) Drain(p *sim.Proc) error {
	e.recycleAll(p)
	return nil
}

// Settle is Drain: PL's lazy parity log must merge before the raw stripe is
// consistent, which is exactly the recovery debt the paper charges it with.
func (e *pl) Settle(p *sim.Proc, _ wire.NodeID) error { return e.Drain(p) }

// NeedsSettle reports whether unmerged parity deltas remain.
func (e *pl) NeedsSettle(wire.NodeID) bool { return e.Dirty() }

// Dirty reports whether unmerged parity deltas remain.
func (e *pl) Dirty() bool { return len(e.records) > 0 }

// MemBytes returns the in-memory parity-log footprint.
func (e *pl) MemBytes() int64 { return e.logBytes }

// PeakMemBytes returns the high-water parity-log footprint.
func (e *pl) PeakMemBytes() int64 { return e.peak }
