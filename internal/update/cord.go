package update

import (
	"time"

	"tsue/internal/device"
	"tsue/internal/logpool"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// cord is CoRD [Zhou et al., SC'24]: data blocks update in place
// (read-modify-write), but the data deltas of a stripe are shipped to a
// single *collector* (the first parity holder), which aggregates deltas of
// the same stripe position in a fixed-size buffer log (Equation (5)) before
// distributing merged parity deltas to the other parity OSDs. That minimizes
// network traffic — but the single buffer log is exclusive: while it
// recycles, appends stall, which is CoRD's throughput bottleneck (§2.2).
type cord struct {
	base
	o Options

	log       *device.Log
	pool      *logpool.Pool
	recycling bool
	cond      *sim.Cond
	peak      int64
}

func newCord(h Host, o Options) *cord {
	return &cord{
		base: newBase(h),
		o:    o,
		log:  h.Store().Device().NewLog("cord-buffer", 2*o.CordBufferSize),
		pool: logpool.NewPool(0, logpool.XOR, o.CordBufferSize, 2),
		cond: sim.NewCond(h.Env()),
	}
}

// Name returns "cord".
func (*cord) Name() string { return "cord" }

// Update overwrites the data block in place and ships the data delta to
// the stripe's collector (first parity holder) in a single message.
func (e *cord) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte, _ uint32) error {
	e.lockBlock(p, blk)
	delta, err := e.readModifyWrite(p, blk, off, data)
	e.unlockBlock(blk)
	if err != nil {
		return err
	}
	// Single message to the collector, regardless of M.
	s := blk.StripeID()
	collector := e.h.Placement(s)[e.h.Code().K]
	req := &wire.DeltaAppend{Blk: blk, Off: off, Data: delta, Kind: wire.KindDataDelta, Sum: wire.Checksum(delta)}
	return e.callAck(p, collector, req)
}

// Handle buffers incoming data deltas (collector role) and applies merged
// parity deltas distributed by other collectors.
func (e *cord) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	switch v := m.(type) {
	case *wire.DeltaAppend:
		e.append(p, v)
		return wire.OK, true
	case *wire.ParityDelta:
		// Merged delta from a collector: apply to our parity block in place.
		return errAck(e.applyParityDelta(p, v.Blk, v.Off, v.Data)), true
	}
	return nil, false
}

func (e *cord) append(p *sim.Proc, da *wire.DeltaAppend) {
	for {
		if e.recycling {
			// Exclusive buffer log: wait out the in-flight recycle.
			e.cond.Wait(p)
			continue
		}
		sealed, ok := e.pool.Append(da.Blk, da.Off, da.Data, p.Now())
		if !ok {
			e.cond.Wait(p)
			continue
		}
		fin := e.logSpan(p, "log:append:cord")
		e.log.Append(p, int64(len(da.Data))+24)
		fin()
		if mem := e.pool.Stats().MemBytes; mem > e.peak {
			e.peak = mem
		}
		if sealed != nil {
			e.recycleUnit(p, sealed)
		}
		return
	}
}

// recycleUnit distributes a sealed buffer unit: per stripe, deltas from all
// data blocks fold into one staged parity delta per parity block
// (Equation (5)); parity 0 applies locally, the rest ship over the network.
func (e *cord) recycleUnit(p *sim.Proc, u *logpool.Unit) {
	e.recycling = true
	e.pool.MarkRecycling(u)
	defer func() {
		e.pool.MarkRecycled(u, p.Now())
		e.recycling = false
		e.cond.Broadcast()
	}()
	// A dead collector's buffer is lost with it; its window's settle
	// re-encodes the live parities of its stripes.
	if !e.h.Alive(e.h.NodeID()) {
		return
	}
	c := e.h.Code()
	k, mm := c.K, c.M

	type stage struct{ perParity []*logpool.BlockLog }
	stages := make(map[wire.StripeID]*stage)
	order := []wire.StripeID{}
	var pd []byte
	for _, blk := range u.Blocks() {
		s := blk.StripeID()
		st, ok := stages[s]
		if !ok {
			st = &stage{perParity: make([]*logpool.BlockLog, mm)}
			for j := range st.perParity {
				st.perParity[j] = &logpool.BlockLog{}
			}
			stages[s] = st
			order = append(order, s)
		}
		bl := u.Lookup(blk)
		for _, ext := range bl.Extents() {
			// Insert copies (or XORs in) what it is given, so one scratch
			// buffer carries every coef * delta product of the pass.
			if len(ext.Data) > cap(pd) {
				pd = make([]byte, len(ext.Data))
			}
			pd = pd[:len(ext.Data)]
			for j := 0; j < mm; j++ {
				c.ParityDelta(j, int(blk.Index), pd, ext.Data)
				st.perParity[j].Insert(ext.Off, pd, logpool.XOR)
			}
		}
	}
	for _, s := range order {
		st := stages[s]
		osds := e.h.Placement(s)
		for j := 0; j < mm; j++ {
			pblk := e.parityBlock(s, j)
			// A dead parity holder's deltas are dropped: recovery rebuilds
			// that parity block by re-encoding the (already updated) data.
			if j > 0 && !e.h.Alive(osds[k+j]) {
				continue
			}
			for _, ext := range st.perParity[j].Extents() {
				if j == 0 {
					if err := e.applyParityDelta(p, pblk, ext.Off, ext.Data); err != nil {
						panic("cord: recycle: " + err.Error())
					}
					continue
				}
				req := &wire.ParityDelta{Blk: pblk, Off: ext.Off, Data: ext.Data, Sum: wire.Checksum(ext.Data)}
				if err := e.callAck(p, osds[k+j], req); err != nil {
					if !e.h.Alive(osds[k+j]) || !e.h.Alive(e.h.NodeID()) {
						break // one end died mid-distribution; recovery repairs
					}
					panic("cord: forward: " + err.Error())
				}
			}
		}
	}
}

// Merge distributes the collector buffer's deltas in scope sc: the buffer
// holds deltas for other parity holders, so the raw stripe is only
// consistent once it distributes. Over every stripe it recycles the buffer
// to quiescence. A narrower scope waits for every unit holding a delta in
// it to distribute, sealing the active one when it holds such a delta and
// nothing else is sealed or recycling; it does not poll until the buffer is
// empty, which never ends while appends to other stripes go on.
func (e *cord) Merge(p *sim.Proc, sc Scope) error {
	if sc.every() {
		for e.recycling {
			e.cond.Wait(p)
		}
		if u := e.pool.SealActive(p.Now()); u != nil {
			e.recycleUnit(p, u)
		}
		// A sealed-but-unrecycled unit can exist if a concurrent append
		// sealed it moments ago; the inline recycle above covers the common
		// case, and Pending() re-checks.
		for e.pool.Pending() {
			p.Sleep(time.Millisecond)
			if u := e.pool.SealActive(p.Now()); u != nil {
				e.recycleUnit(p, u)
			}
		}
		return nil
	}
	for e.Pending(sc) {
		if !e.recycling && !e.pool.PendingSealed() {
			if u := e.pool.Active(); u != nil && e.unitIn(u, sc) {
				e.recycleUnit(p, e.pool.SealActive(p.Now()))
				continue
			}
		}
		// A sealed unit is recycling or about to be (its appender recycles
		// it once its persist returns), and every recycle broadcasts.
		e.cond.Wait(p)
	}
	return nil
}

// Pending reports whether the collector buffer still holds a delta in
// scope sc.
func (e *cord) Pending(sc Scope) bool { return e.poolIn(e.pool, sc, true) }

// Exposed reports whether the collector buffer holds a delta of a stripe
// with a data block on f (buffersFor).
func (e *cord) Exposed(f wire.NodeID) bool { return e.buffersFor(e.pool, f) }

// MemBytes returns the collector buffer's memory footprint.
func (e *cord) MemBytes() int64 { return e.pool.Stats().MemBytes }

// PeakMemBytes returns the high-water collector footprint.
func (e *cord) PeakMemBytes() int64 { return e.peak }
