package update

import (
	"fmt"
	"slices"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// plr is Parity Logging with Reserved space [Chan et al., FAST'14]: each
// parity block keeps a dedicated log area adjacent to it. Recycling a
// block's reserve is cheap (the deltas sit next to the parity block), but
// because the reserves are scattered across the device, the *appends*
// themselves become random writes, and a full reserve forces a recycle
// inside the update path — both penalties the paper calls out (§2.2) and the
// reason PLR trails every other scheme in Fig. 5.
type plr struct {
	base
	o Options

	zone int
	// metaZone holds the per-reserve append cursors; updating one per
	// append keeps the scattered logs crash-consistent and is itself a
	// small random write.
	metaZone int
	slots    map[wire.BlockID]int64
	next     int64
	logs     map[wire.BlockID]*plrLog
	cond     *sim.Cond
	mem      int64
	peak     int64
}

type plrLog struct {
	fill      int64
	recs      []plRec
	recycling bool
}

func newPLR(h Host, o Options) *plr {
	return &plr{
		base:     newBase(h),
		o:        o,
		zone:     h.Store().Device().NewZone("plr-reserve", true),
		metaZone: h.Store().Device().NewZone("plr-meta", true),
		slots:    make(map[wire.BlockID]int64),
		logs:     make(map[wire.BlockID]*plrLog),
		cond:     sim.NewCond(h.Env()),
	}
}

// Name returns "plr".
func (*plr) Name() string { return "plr" }

func (e *plr) slot(blk wire.BlockID) int64 {
	s, ok := e.slots[blk]
	if !ok {
		s = e.next
		e.next++
		e.slots[blk] = s
	}
	return s
}

// Update overwrites the data block in place and appends the parity
// deltas to each parity block's reserved log space in parallel.
func (e *plr) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte, _ uint32) error {
	return e.logParityDeltas(p, blk, off, data)
}

// Handle appends incoming parity deltas into the block's reserve,
// recycling inline when the reserve fills (the update-path stall).
func (e *plr) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	da, ok := m.(*wire.DeltaAppend)
	if !ok {
		return nil, false
	}
	if da.Kind != wire.KindParityDelta {
		return errAck(fmt.Errorf("plr: unexpected delta kind %d", da.Kind)), true
	}
	pblk := e.parityBlock(da.Blk.StripeID(), int(da.ParityIdx))
	lg, okL := e.logs[pblk]
	if !okL {
		lg = &plrLog{}
		e.logs[pblk] = lg
	}
	need := int64(len(da.Data)) + 24
	// Appends to a reserve share its physical space with the in-flight
	// recycle, so they stall until it finishes — the paper's point that
	// PLR's "performance of log appending is limited by the log recycling
	// process".
	for lg.recycling {
		e.cond.Wait(p)
	}
	if lg.fill+need > e.o.PLRReserve {
		// Reserve full: recycle inline — this is the update-path stall.
		e.recycleBlock(p, pblk, lg)
	}
	// Append into this block's reserve. Reserves of different parity blocks
	// interleave on the device, so the write lands as random I/O; locating
	// the reserve's append cursor first costs a random read of its header
	// (scattered small logs defeat any sequential append stream — the
	// paper's "log appending operations resemble random writes").
	base := e.slot(pblk) * e.o.PLRReserve
	fin := e.logSpan(p, "log:append:plr")
	e.h.Store().Device().Write(p, e.zone, base+lg.fill, need, false)
	e.h.Store().Device().Write(p, e.metaZone, e.slot(pblk)*512, 512, true)
	fin()
	// The parity delta moved here with its message: keep it, do not copy.
	lg.recs = append(lg.recs, plRec{off: da.Off, delta: da.Data, pos: base + lg.fill})
	lg.fill += need
	e.mem += int64(len(da.Data))
	if e.mem > e.peak {
		e.peak = e.mem
	}
	return wire.OK, true
}

// recycleBlock merges one parity block's reserve into the parity block.
// The reserve is adjacent to the block, so it reads back as one sequential
// read, and the parity RMW covers the merged extents only.
func (e *plr) recycleBlock(p *sim.Proc, pblk wire.BlockID, lg *plrLog) {
	if len(lg.recs) == 0 {
		return
	}
	// Steal the pending records up front: the parity RMWs below block, and
	// concurrent appends to this reserve must land in a fresh list rather
	// than be silently dropped when we reset it.
	recs := lg.recs
	fill := lg.fill
	lg.recs = nil
	lg.fill = 0
	lg.recycling = true
	defer func() {
		lg.recycling = false
		e.cond.Broadcast()
	}()
	dev := e.h.Store().Device()
	base := e.slot(pblk) * e.o.PLRReserve
	// The reserve sits adjacent to the parity block, so reading it back is
	// one cheap sequential read (PLR's recycle advantage over PL)...
	dev.Read(p, e.zone, base, fill)
	// ...but without a merging index, every record is applied to the parity
	// region individually (no locality exploitation — §2.2).
	for _, r := range recs {
		e.mem -= int64(len(r.delta))
		if err := e.applyParityDelta(p, pblk, r.off, r.delta); err != nil {
			panic("plr: recycle: " + err.Error())
		}
	}
}

// Merge merges the reserves of the parity blocks in scope sc into them,
// each after any recycle already running on it: reserved-space logs must
// merge before raw stripes are consistent.
func (e *plr) Merge(p *sim.Proc, sc Scope) error {
	for _, b := range keysIn(&e.base, sc, e.logs, always[*plrLog]) {
		lg := e.logs[b]
		for lg.recycling {
			e.cond.Wait(p)
		}
		e.recycleBlock(p, b, lg)
	}
	return nil
}

// Pending reports whether a reserve in scope sc holds an unmerged delta in
// it, or is being recycled.
func (e *plr) Pending(sc Scope) bool {
	return anyIn(&e.base, sc, e.logs, func(lg *plrLog) bool { return lg.recycling || sc.anyRec(lg.recs) })
}

// MemBytes returns the in-memory reserve footprint.
func (e *plr) MemBytes() int64 { return e.mem }

// PeakMemBytes returns the high-water reserve footprint.
func (e *plr) PeakMemBytes() int64 { return e.peak }

// sortBlocks puts map keys in the tree's deterministic block order; keys
// are unique, so the result does not depend on the sort's stability.
func sortBlocks(b []wire.BlockID) { slices.SortFunc(b, wire.BlockID.Compare) }
