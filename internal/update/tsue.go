package update

import (
	"fmt"
	"slices"
	"time"

	"tsue/internal/device"
	"tsue/internal/logpool"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// tsue is the paper's contribution: a two-stage update scheme.
//
// Front end (synchronous): an update is inserted into the local DataLog's
// memory index, then persisted to its sequential SSD log and replicated to
// the next OSD's DataLog copy at the same time, and acked once both are
// done — no read-modify-write on the update path.
//
// Back end (asynchronous, real-time): per-pool recyclers drain sealed log
// units — up to Options.RecycleBatch per pass, merging extents across the
// batch so repeated updates collapse before any device or network work —
// through the three-layer pipeline:
//
//	DataLog  — merged extents are RMW'd into the data block; the data deltas
//	           forward to the DeltaLog on the first parity holder (copy to
//	           the second), or, without a DeltaLog, straight to the M
//	           ParityLogs.
//	DeltaLog — deltas of one stripe fold into per-parity-block staged deltas
//	           (Equation (5)) and ship to each parity holder's ParityLog.
//	ParityLog— merged parity deltas XOR into the parity block in place.
//
// Both sites that feed the ParityLogs send to a stripe's M parity holders
// in parallel (stripes stay in order, and each holder gets its extents in
// fold order): the holders are independent, and a serial walk over them
// backs the DeltaLog up until its appenders stall. A DataLog pass
// read-modify-writes its extents one after another in merge order, and each
// extent's delta leaves in a proc of its own as soon as its RMW returns, to
// the DeltaLog and its reliability copy at once; the forwards overlap each
// other and the RMWs behind them. A ParityLog pass runs all its RMWs at
// once. Neither needs an order: a pass's merged extents are disjoint, and
// the DeltaLog and ParityLog merge by XOR. A stall in any layer's append is
// a "log:stall" span.
//
// Every layer uses the FIFO log-pool structure with the two-level index, so
// repeated and adjacent updates collapse before they cost device or network
// work. Retained recycled units double as a read cache.
type tsue struct {
	base
	o Options

	data   *tsueLayer
	delta  *tsueLayer
	parity *tsueLayer

	// Replica store: unrecycled DataLog items held for peers, by source
	// node and pool; dropped on UnitDone; replayed at recovery. The replica
	// log persists them and the DeltaLog reliability copies held here.
	replog   *device.Log
	replicas map[replicaKey][]replicaItem

	// Recovery replays merged through ReplayInto (reported as the "replay"
	// residency layer).
	replayN     int64
	replayBytes int64

	idle *sim.Cond // broadcast after every unit recycle (drain support)
}

type replicaKey struct {
	src  wire.NodeID
	pool uint16
}

type replicaItem struct {
	unitSeq uint64
	blk     wire.BlockID
	off     int64
	data    []byte
}

// tsueLayer is one log structure (DataLog, DeltaLog or ParityLog) on one OSD.
type tsueLayer struct {
	name      string
	pools     []*logpool.Pool
	logs      []*device.Log
	queues    []*sim.Queue[*logpool.Unit]
	cond      *sim.Cond // unit recycled: stalled appenders retry
	exclusive bool      // pre-O3 baseline: recycle blocks appends
	recycling int
	stats     LayerStats
}

func newTsueLayer(h Host, name string, mode logpool.MergeMode, o Options, pools int, noMerge bool) *tsueLayer {
	l := &tsueLayer{
		name:      name,
		cond:      sim.NewCond(h.Env()),
		exclusive: !o.UseLogPool,
	}
	maxUnits := o.MaxUnits
	if !o.UseLogPool {
		// Single exclusive log: a second unit only exists so appends have
		// somewhere to land once the recycle finishes.
		maxUnits = 2
	}
	// The on-disk log region is circular (MaxUnits units worth of space per
	// pool): recycled units' space is overwritten, which the FTL sees as
	// invalidation rather than unbounded growth.
	span := int64(o.MaxUnits) * o.UnitSize
	for i := 0; i < pools; i++ {
		pool := logpool.NewPool(i, mode, o.UnitSize, maxUnits)
		pool.NoMerge = noMerge
		l.pools = append(l.pools, pool)
		l.logs = append(l.logs, h.Store().Device().NewLog(fmt.Sprintf("tsue-%s-%d", name, i), span))
		l.queues = append(l.queues, sim.NewQueue[*logpool.Unit](h.Env()))
	}
	return l
}

func (l *tsueLayer) poolFor(key uint64) int { return int(key % uint64(len(l.pools))) }

func (l *tsueLayer) memBytes() int64 {
	var n int64
	for _, p := range l.pools {
		n += p.Stats().MemBytes
	}
	return n
}

func (l *tsueLayer) peakBytes() int64 {
	var n int64
	for _, p := range l.pools {
		n += p.Stats().PeakMemBytes
	}
	return n
}

func hashBlk(b wire.BlockID) uint64 {
	h := b.Ino*0x9e3779b97f4a7c15 + uint64(b.Stripe)*0x85ebca6b + uint64(b.Index)*0xc2b2ae35
	h ^= h >> 33
	return h
}

func hashStripe(s wire.StripeID) uint64 {
	h := s.Ino*0x9e3779b97f4a7c15 + uint64(s.Stripe)*0x85ebca6b
	h ^= h >> 33
	return h
}

func newTsue(h Host, o Options) *tsue {
	t := &tsue{
		base:     newBase(h),
		o:        o,
		replog:   h.Store().Device().NewLog("tsue-replog", int64(o.MaxUnits)*o.UnitSize*2),
		replicas: make(map[replicaKey][]replicaItem),
		idle:     sim.NewCond(h.Env()),
	}
	t.data = newTsueLayer(h, "data", logpool.Overwrite, o, o.Pools, !o.DataLocality)
	if o.UseDeltaLog {
		t.delta = newTsueLayer(h, "delta", logpool.XOR, o, o.Pools, false)
	}
	t.parity = newTsueLayer(h, "parity", logpool.XOR, o, o.Pools, !o.ParityLocality)
	// One recycler process per pool per layer (the paper's recycle thread
	// pool; units of one pool recycle in order, pools in parallel).
	t.startRecyclers(t.data, t.recycleDataUnits)
	if t.delta != nil {
		t.startRecyclers(t.delta, t.recycleDeltaUnits)
	}
	t.startRecyclers(t.parity, t.recycleParityUnits)
	return t
}

// Name returns "tsue".
func (*tsue) Name() string { return "tsue" }

// startRecyclers spawns one recycler process per pool. Each pass drains up
// to Options.RecycleBatch sealed units from the pool's queue — one blocking
// Get plus whatever else is already waiting — so that under recycle
// pressure the batch grows and extents merge across units before the single
// read-modify-write, while an idle pool still recycles unit-by-unit with no
// added latency. Units of one pool always recycle in seal order.
func (t *tsue) startRecyclers(l *tsueLayer, fn func(p *sim.Proc, poolIdx int, units []*logpool.Unit)) {
	tracer := t.h.Tracer()
	for i := range l.pools {
		i := i
		t.h.Env().Go(fmt.Sprintf("tsue-recycle-%s-%d@%d", l.name, i, t.h.NodeID()), func(p *sim.Proc) {
			for {
				u, ok := l.queues[i].Get(p)
				if !ok {
					return
				}
				batch := []*logpool.Unit{u}
				for len(batch) < t.o.RecycleBatch {
					next, ok := l.queues[i].TryGet()
					if !ok {
						break
					}
					batch = append(batch, next)
				}
				start := p.Now()
				for _, u := range batch {
					l.pools[i].MarkRecycling(u)
					if u.FirstAppend >= 0 {
						l.stats.BufferN++
						l.stats.BufferTime += start - u.FirstAppend
					}
				}
				l.recycling++
				// A recycle pass is its own root trace (when sampled): the
				// background work is asynchronous to any foreground op, so it
				// cannot ride a client trace.
				finOp := tracer.StartOp(p, obs.OpRecycle, t.h.NodeID(), "op:recycle:"+l.name)
				fn(p, i, batch)
				finOp()
				l.recycling--
				for _, u := range batch {
					l.pools[i].MarkRecycled(u, p.Now())
					l.stats.Units++
				}
				l.cond.Broadcast()
				t.idle.Broadcast()
				l.stats.RecycleTime += p.Now() - start
			}
		})
	}
}

// logRecord is one record inserted into a layer's pool, with its log
// position reserved, on its way to the device.
type logRecord struct {
	l      *tsueLayer
	pool   int
	unit   *logpool.Unit // the unit the record landed in
	sealed *logpool.Unit // the unit the insert sealed, if any
	pos, n int64
	start  time.Duration
}

// insert puts one record into the layer's pool, blocking through stalls,
// and reserves its position in the pool's log. Nothing after the stall
// yields, so records hold log positions in insert order and unit is the
// unit the record landed in. With owned set, data was moved to this node
// with its message and the pool keeps the buffer itself; otherwise the
// pool copies it.
func (t *tsue) insert(p *sim.Proc, l *tsueLayer, poolIdx int, blk wire.BlockID, off int64, data []byte, owned bool) logRecord {
	r := logRecord{l: l, pool: poolIdx, n: int64(len(data)) + 24, start: p.Now()}
	pool := l.pools[poolIdx]
	add := pool.Append
	if owned {
		add = pool.AppendOwned
	}
	// Backpressure: wait while an exclusive log recycles or the pool is
	// full. The wait is its own journal span, so a stalled update's trace
	// names the stalled layer rather than the handler that called it.
	var endStall func()
	for {
		if !l.exclusive || l.recycling == 0 {
			var ok bool
			if r.sealed, ok = add(blk, off, data, p.Now()); ok {
				break
			}
		}
		if endStall == nil {
			endStall = t.logSpan(p, "log:stall:tsue-"+l.name)
		}
		l.cond.Wait(p)
	}
	if endStall != nil {
		endStall()
	}
	r.unit = pool.Tail()
	r.pos = l.logs[poolIdx].Reserve(r.n)
	return r
}

// persist charges an inserted record's sequential log write, then queues
// the unit its insert sealed for recycling.
func (t *tsue) persist(p *sim.Proc, r logRecord) {
	fin := t.logSpan(p, "log:append:tsue-"+r.l.name)
	r.l.logs[r.pool].Write(p, r.pos, r.n)
	fin()
	if r.sealed != nil {
		r.l.queues[r.pool].Put(r.sealed)
	}
	r.l.stats.AppendN++
	r.l.stats.AppendTime += p.Now() - r.start
}

// appendLayer inserts one record and persists it.
func (t *tsue) appendLayer(p *sim.Proc, l *tsueLayer, poolIdx int, blk wire.BlockID, off int64, data []byte, owned bool) {
	t.persist(p, t.insert(p, l, poolIdx, blk, off, data, owned))
}

// Update is the synchronous front end: insert locally, then persist and
// replicate at once, and ack when all are done. The replicas carry the
// client's bytes and the sum the OSD verified them against; each replica
// holder verifies again on arrival.
func (t *tsue) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte, sum uint32) error {
	poolIdx := t.data.poolFor(hashBlk(blk))
	r := t.insert(p, t.data, poolIdx, blk, off, data, false)
	// The local persist and the next Copies-1 OSDs' DataLog copies (2 total
	// on SSD, 3 on HDD; §3.1.1). Each replica names the unit the record
	// landed in, so the unit's UnitDone retires it.
	self := t.h.NodeID()
	return t.fanout(p, t.o.Copies, func(hp *sim.Proc, i int) error {
		if i == 0 {
			t.persist(hp, r)
			return nil
		}
		req := &wire.LogReplica{
			SrcNode: self, Pool: uint16(poolIdx), UnitSeq: r.unit.Seq,
			Blk: blk, Off: off, Data: data, Sum: sum,
		}
		return t.callAck(hp, t.replicaTarget(i-1), req)
	})
}

// replicaTarget picks the i-th DataLog replica holder: the following live
// OSDs in ring order after this node.
func (t *tsue) replicaTarget(i int) wire.NodeID {
	peers := t.h.Peers()
	self := 0
	for idx, id := range peers {
		if id == t.h.NodeID() {
			self = idx
			break
		}
	}
	seen := 0
	for step := 1; step < len(peers); step++ {
		id := peers[(self+step)%len(peers)]
		if !t.h.Alive(id) {
			continue
		}
		if seen == i {
			return id
		}
		seen++
	}
	return peers[(self+1+i)%len(peers)]
}

// Handle processes the scheme's internal pipeline messages: DataLog
// replicas and their retirement, replica fetches at recovery, DeltaLog
// appends and ParityLog appends.
func (t *tsue) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	switch v := m.(type) {
	case *wire.LogReplica:
		// Recorded before the write yields: ReplicaFetch replays in arrival
		// order, whichever write finishes first.
		key := replicaKey{src: v.SrcNode, pool: v.Pool}
		t.replicas[key] = append(t.replicas[key], replicaItem{
			unitSeq: v.UnitSeq, blk: v.Blk, off: v.Off,
			data: append([]byte(nil), v.Data...),
		})
		t.appendReplog(p, int64(len(v.Data))+32)
		return wire.OK, true
	case *wire.UnitDone:
		key := replicaKey{src: v.SrcNode, pool: v.Pool}
		items := t.replicas[key]
		keep := items[:0]
		for _, it := range items {
			if it.unitSeq != v.UnitSeq {
				keep = append(keep, it)
			}
		}
		t.replicas[key] = keep
		return wire.OK, true
	case *wire.ReplicaFetch:
		var out []wire.ReplicaItem
		var total int64
		// Deterministic order: ascending pool, then original append order.
		for pool := 0; pool < len(t.data.pools); pool++ {
			items := t.replicas[replicaKey{src: v.Node, pool: uint16(pool)}]
			for _, it := range items {
				out = append(out, wire.ReplicaItem{Blk: it.blk, Off: it.off, Data: it.data})
				total += int64(len(it.data))
			}
		}
		if total > 0 {
			t.replog.Read(p, 0, total)
		}
		return &wire.ReplicaResp{Items: out}, true
	case *wire.DeltaAppend:
		if v.Kind != wire.KindDataDelta {
			return errAck(fmt.Errorf("tsue: unexpected delta kind %d", v.Kind)), true
		}
		if v.Replica {
			// Reliability copy of the data delta (stored on the second
			// parity holder's SSD only; never recycled, dropped implicitly).
			t.appendReplog(p, int64(len(v.Data))+32)
			return wire.OK, true
		}
		if t.delta == nil {
			return errAck(fmt.Errorf("tsue: DeltaLog disabled")), true
		}
		s := v.Blk.StripeID()
		// A data delta has two holders — its sender shows the same buffer
		// to the reliability copy's holder — so the DeltaLog copies it.
		t.appendLayer(p, t.delta, t.delta.poolFor(hashStripe(s)), v.Blk, v.Off, v.Data, false)
		return wire.OK, true
	case *wire.ParityDelta:
		// A parity delta was built for this one message: the ParityLog
		// adopts the buffer.
		t.appendLayer(p, t.parity, t.parity.poolFor(hashBlk(v.Blk)), v.Blk, v.Off, v.Data, true)
		return wire.OK, true
	case *wire.ReplicaRetire:
		// A migrating block's extracted DataLog records are replayed at its
		// new home; the copies held here for the old home must die with
		// them, or a later failure of that node would replay stale
		// pre-migration content over the new home's current state.
		for key, items := range t.replicas {
			if key.src != v.Node {
				continue
			}
			keep := items[:0]
			for _, it := range items {
				if it.blk != v.Blk {
					keep = append(keep, it)
				}
			}
			t.replicas[key] = keep
		}
		return wire.OK, true
	}
	return nil, false
}

// ExtractBlockLog removes and returns the block's unrecycled DataLog
// overlay records so they can follow the block to its new home (the
// log-follows-block half of a PG cutover). The caller must hold the update
// fence and have merged Failed(0) first, so blk's only unrecycled records
// live in the active unit of its data pool; the merged extents are read
// back from the log zone and returned in offset order (absolute writes of
// non-overlapping ranges — replay order among them is immaterial).
func (t *tsue) ExtractBlockLog(p *sim.Proc, blk wire.BlockID) []wire.ReplicaItem {
	poolIdx := t.data.poolFor(hashBlk(blk))
	exts := t.data.pools[poolIdx].ExtractActive(blk)
	if len(exts) == 0 {
		return nil
	}
	out := make([]wire.ReplicaItem, 0, len(exts))
	var total int64
	for _, e := range exts {
		out = append(out, wire.ReplicaItem{Blk: blk, Off: e.Off, Data: e.Data})
		total += int64(len(e.Data))
	}
	t.data.logs[poolIdx].Read(p, 0, total)
	return out
}

// appendReplog charges one n-byte record to the replica log.
func (t *tsue) appendReplog(p *sim.Proc, n int64) {
	fin := t.logSpan(p, "log:append:tsue-replog")
	t.replog.Append(p, n)
	fin()
}

var _ LogMigrator = (*tsue)(nil)

// recycleDataUnits merges a batch of DataLog units into data blocks and
// forwards the data deltas downstream. Extents of one block merge across
// the whole batch (latest write wins) before the single read-modify-write,
// so an update overwritten in a later unit never touches the device; the
// forwarded delta is the XOR of old and merged-new content, which equals
// the fold of the per-unit deltas (XOR is associative).
//
// This proc runs the read-modify-writes one after another in merge order.
// Each extent's forward starts in a proc of its own as soon as its RMW
// returns, so forwards overlap each other and the RMWs behind them; their
// order does not matter, because the extents are disjoint and the DeltaLog
// and ParityLog merge by XOR. Once this node is seen dead, no RMW and no
// forward starts. The pass sends its UnitDones, all at once, and returns
// (its units count as recycled) only after every forward has returned.
func (t *tsue) recycleDataUnits(p *sim.Proc, poolIdx int, units []*logpool.Unit) {
	// A dead node's recyclers discard their work: the store is lost and the
	// unrecycled items live on in the replicas recovery replays.
	if !t.h.Alive(t.h.NodeID()) {
		return
	}
	env := t.h.Env()
	st := t.h.Store()
	merged, order := logpool.MergeUnits(units, logpool.Overwrite, t.data.pools[poolIdx].NoMerge)
	fwds := sim.NewWaitGroup(env)
	died := false // a forward saw this node die
rmw:
	for _, blk := range order {
		osds := t.h.Placement(blk.StripeID())
		for _, ext := range merged[blk].Extents() {
			if died {
				break rmw
			}
			// The delta goes on the wire, so it is a fresh buffer: a copy of
			// the new bytes with the old ones XORed in where they live.
			delta := slices.Clone(ext.Data)
			err := st.Modify(p, blk, ext.Off, int64(len(ext.Data)), func(cur []byte) {
				rs.DataDelta(delta, delta, cur)
				copy(cur, ext.Data)
			})
			if err != nil {
				panic("tsue: data recycle: " + err.Error())
			}
			if died {
				break rmw
			}
			fwds.Add(1)
			fwd := env.Go("tsue-recycle-fwd", func(fp *sim.Proc) {
				if t.forwardDataDelta(fp, blk, ext.Off, delta, osds) {
					t.data.stats.RecycleN++
				} else {
					died = true
				}
				fwds.Done()
			})
			// The forwards belong to this pass's op:recycle trace.
			fwd.SetSpan(p.Span())
		}
	}
	fwds.Wait(p)
	if died {
		return // replicas replay the pass's units
	}
	// Tell every replica holder to drop its copies of these units (best
	// effort; stale replica entries are only garbage, never incorrectness).
	nrep := t.o.Copies - 1
	_ = t.fanout(p, len(units)*nrep, func(hp *sim.Proc, i int) error {
		done := &wire.UnitDone{SrcNode: t.h.NodeID(), Pool: uint16(poolIdx), UnitSeq: units[i/nrep].Seq}
		_ = t.callAck(hp, t.replicaTarget(i%nrep), done)
		return nil
	})
}

// forwardDataDelta ships one recycled extent's data delta downstream: to
// the DeltaLog on the stripe's first parity holder and, at the same time, a
// reliability copy to the second, or — without a DeltaLog, or with its
// holder down — straight to the M ParityLogs. osds is the stripe placement
// the extent was recycled under. It returns once every send is acked, and
// reports false if this node died mid-forward.
func (t *tsue) forwardDataDelta(p *sim.Proc, blk wire.BlockID, off int64, delta []byte, osds []wire.NodeID) bool {
	c := t.h.Code()
	k := c.K
	s := blk.StripeID()
	if t.delta == nil || !t.h.Alive(osds[k]) {
		// No DeltaLog (HDD config / pre-O5) or its holder is down: multiply
		// locally and append straight to each live ParityLog.
		t.forwardParityDirect(p, s, blk, off, delta, osds)
		return true
	}
	req := &wire.DeltaAppend{Blk: blk, Off: off, Data: delta, Kind: wire.KindDataDelta, Sum: wire.Checksum(delta)}
	sends := 1
	if c.M >= 2 && t.o.Copies >= 2 {
		sends = 2
	}
	err := t.fanout(p, sends, func(hp *sim.Proc, i int) error {
		if i == 0 {
			return t.callAck(hp, osds[k], req)
		}
		// Reliability copy (same bytes, same sum); best effort — a dead
		// holder only narrows the redundancy window, and a copy whose
		// primary failed is only a replica-log write: copies never recycle.
		cp := &wire.DeltaAppend{Blk: blk, Off: off, Data: delta, Kind: wire.KindDataDelta, Replica: true, Sum: req.Sum}
		_ = t.callAck(hp, osds[k+1], cp)
		return nil
	})
	if err != nil {
		if !t.h.Alive(t.h.NodeID()) {
			return false
		}
		if t.h.Alive(osds[k]) {
			panic("tsue: delta fwd: " + err.Error())
		}
		// The DeltaLog holder died mid-forward (nothing was appended):
		// degrade to direct parity appends.
		t.forwardParityDirect(p, s, blk, off, delta, osds)
	}
	return true
}

// forwardParityDirect multiplies a data delta locally and appends it to
// each live parity holder's ParityLog, all M in parallel — the no-DeltaLog
// path, also the degraded fallback when the DeltaLog holder is down. Deltas
// for a dead parity holder are dropped: its block is rebuilt by re-encoding
// the already-updated data (degraded-mode recovery).
func (t *tsue) forwardParityDirect(p *sim.Proc, s wire.StripeID, blk wire.BlockID, off int64, delta []byte, osds []wire.NodeID) {
	c := t.h.Code()
	k := c.K
	err := t.fanout(p, c.M, func(hp *sim.Proc, j int) error {
		if !t.h.Alive(osds[k+j]) {
			return nil
		}
		pd := mulDelta(c, j, int(blk.Index), delta)
		req := &wire.ParityDelta{Blk: t.parityBlock(s, j), Off: off, Data: pd, Sum: wire.Checksum(pd)}
		if err := t.callAck(hp, osds[k+j], req); err != nil {
			if !t.h.Alive(osds[k+j]) || !t.h.Alive(t.h.NodeID()) {
				return nil // one end died mid-forward; recovery repairs
			}
			return err
		}
		return nil
	})
	if err != nil {
		panic("tsue: parity fwd: " + err.Error())
	}
}

// recycleDeltaUnits folds a batch of DeltaLog units' data deltas into
// per-parity staged deltas and ships them to the parity logs. Deltas XOR-
// merge across units first, then each stripe's extents fold through the
// codec's batched Equation (5) (rs.FoldDeltas) in one pass. A stripe's M
// parity holders are independent, so their sends run in parallel; each
// holder still receives its extents in fold order, and the next stripe
// starts once every holder has acked this one.
func (t *tsue) recycleDeltaUnits(p *sim.Proc, poolIdx int, units []*logpool.Unit) {
	// Dead node: buffered deltas are lost with it; the re-encode repair
	// rebuilds the parities they were destined for.
	if !t.h.Alive(t.h.NodeID()) {
		return
	}
	c := t.h.Code()
	k := c.K
	merged, order := logpool.MergeUnits(units, logpool.XOR, false)
	perStripe := make(map[wire.StripeID][]rs.DeltaExtent)
	var stripes []wire.StripeID
	for _, blk := range order {
		s := blk.StripeID()
		if _, ok := perStripe[s]; !ok {
			stripes = append(stripes, s)
		}
		for _, ext := range merged[blk].Extents() {
			perStripe[s] = append(perStripe[s], rs.DeltaExtent{Block: int(blk.Index), Off: ext.Off, Data: ext.Data})
			t.delta.stats.RecycleN++
		}
	}
	for _, s := range stripes {
		folded := c.FoldDeltas(perStripe[s])
		osds := t.h.Placement(s)
		err := t.fanout(p, c.M, func(hp *sim.Proc, j int) error {
			// Deltas for a dead parity holder are dropped; recovery rebuilds
			// that block by re-encoding the data.
			if !t.h.Alive(osds[k+j]) {
				return nil
			}
			pblk := t.parityBlock(s, j)
			for _, ext := range folded[j] {
				req := &wire.ParityDelta{Blk: pblk, Off: ext.Off, Data: ext.Data, Sum: wire.Checksum(ext.Data)}
				if err := t.callAck(hp, osds[k+j], req); err != nil {
					if !t.h.Alive(osds[k+j]) || !t.h.Alive(t.h.NodeID()) {
						return nil // one end died mid-fold; recovery repairs
					}
					return err
				}
			}
			return nil
		})
		if err != nil {
			panic("tsue: parity delta fwd: " + err.Error())
		}
	}
}

// recycleParityUnits XORs a batch of ParityLog units' merged deltas into
// parity blocks in place — one read-modify-write per merged extent, however
// many units contributed to it. All of a pass's RMWs run at once, one proc
// per extent, so they share the device's internal parallelism instead of
// queueing behind each other. XOR commutes, and concurrent Store.Modify
// calls on one block are safe: each verifies its granules before its read
// yields, then XORs and re-sums the live bytes without yielding. Each
// parity block's lock is held once around all its extents; taking it per
// extent (applyParityDelta) would serialize them again.
func (t *tsue) recycleParityUnits(p *sim.Proc, poolIdx int, units []*logpool.Unit) {
	merged, order := logpool.MergeUnits(units, logpool.XOR, t.parity.pools[poolIdx].NoMerge)
	type parityExt struct {
		blk   wire.BlockID
		off   int64
		delta []byte
	}
	var exts []parityExt
	for _, blk := range order {
		t.lockBlock(p, blk)
		for _, ext := range merged[blk].Extents() {
			exts = append(exts, parityExt{blk: blk, off: ext.Off, delta: ext.Data})
		}
	}
	err := t.fanout(p, len(exts), func(hp *sim.Proc, i int) error {
		return t.foldParityDelta(hp, exts[i].blk, exts[i].off, exts[i].delta)
	})
	for _, blk := range order {
		t.unlockBlock(blk)
	}
	if err != nil {
		panic("tsue: parity recycle: " + err.Error())
	}
	t.parity.stats.RecycleN += int64(len(exts))
}

// Read consults the DataLog read cache (§3.3.3): a fully covered range is
// served from the index without touching the device; otherwise the block is
// read and the log overlays applied (newest wins).
func (t *tsue) Read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	pool := t.data.pools[t.data.poolFor(hashBlk(blk))]
	if pool.Covers(blk, off, size) {
		buf := make([]byte, size)
		pool.Overlay(blk, off, buf)
		return buf, nil
	}
	buf, err := t.h.Store().ReadRange(p, blk, off, size)
	if err != nil {
		return nil, err
	}
	pool.Overlay(blk, off, buf)
	return buf, nil
}

// Merge seals the active units that hold a record in scope sc and waits
// until no unit in scope is left unrecycled, in any layer. Without Overlay
// the DataLog's active units stay in place: they are pure overlay, whose
// extents have touched neither the data block nor any parity, and every
// item is replicated, so recovery can reconstruct the raw stripe and replay
// them (§4.2). This is TSUE's structural advantage at recovery time: the
// merge debt a failure must pay is bounded by the in-flight recycle window,
// not the log volume. With Overlay, as in a failed node's scope, they are
// sealed too: a retained item would apply whenever its unit later seals, an
// RMW racing the rebuild.
//
// A DeltaLog or ParityLog pool's active unit is force-sealed only while the
// pool has no sealed unit queued or recycling, except under All, which
// empties every layer at once. Deltas forwarded during a running recycle
// gather in the active unit and go as one unit once the recycler idles.
// Sealing a busy pool would cut the pipeline into many small units, each
// recycled in a pass of its own, and stall appenders at MaxUnits.
func (t *tsue) Merge(p *sim.Proc, sc Scope) error {
	all := sc.Overlay && sc.every()
	for {
		for _, l := range []*tsueLayer{t.data, t.delta, t.parity} {
			if l == nil || (l == t.data && !sc.Overlay) {
				continue
			}
			for i, pool := range l.pools {
				if l != t.data && !all && pool.PendingSealed() {
					continue
				}
				if u := pool.Active(); u == nil || !t.unitIn(u, sc) {
					continue
				}
				if u := pool.SealActive(p.Now()); u != nil {
					l.queues[i].Put(u)
				}
			}
		}
		if !t.Pending(sc) {
			return nil
		}
		t.idle.Wait(p)
	}
}

// Pending reports whether a unit not yet recycled, in any layer, holds a
// record in scope sc; the DataLog's active units count only with Overlay.
// A recycling unit counts until its forwards have returned, so nothing it
// sends downstream is missed.
func (t *tsue) Pending(sc Scope) bool {
	for _, l := range []*tsueLayer{t.data, t.delta, t.parity} {
		if l == nil {
			continue
		}
		for _, pool := range l.pools {
			if t.poolIn(pool, sc, sc.Overlay || l != t.data) {
				return true
			}
		}
	}
	return false
}

// ReplayInto merges one recovered record (surrogate-journal or
// DataLog-replica item) through the normal two-stage path: DataLog append
// plus replication, then the asynchronous three-layer recycle. Replays are
// tracked as the "replay" residency layer.
func (t *tsue) ReplayInto(p *sim.Proc, blk wire.BlockID, off int64, data []byte, sum uint32) error {
	t.replayN++
	t.replayBytes += int64(len(data))
	return t.Update(p, blk, off, data, sum)
}

var _ Replayer = (*tsue)(nil)

// MemBytes sums the three layers' current log memory.
func (t *tsue) MemBytes() int64 {
	n := t.data.memBytes() + t.parity.memBytes()
	if t.delta != nil {
		n += t.delta.memBytes()
	}
	return n
}

// PeakMemBytes sums the three layers' peak log memory.
func (t *tsue) PeakMemBytes() int64 {
	n := t.data.peakBytes() + t.parity.peakBytes()
	if t.delta != nil {
		n += t.delta.peakBytes()
	}
	return n
}

// Residency reports per-layer timing for the paper's Table 2, plus a
// synthetic "replay" layer counting records merged through ReplayInto
// (AppendN = records, RecycleN = bytes).
func (t *tsue) Residency() map[string]LayerStats {
	out := map[string]LayerStats{
		"data":   t.data.stats,
		"parity": t.parity.stats,
	}
	if t.delta != nil {
		out["delta"] = t.delta.stats
	}
	if t.replayN > 0 {
		out["replay"] = LayerStats{AppendN: t.replayN, RecycleN: t.replayBytes}
	}
	return out
}

var _ ResidencyReporter = (*tsue)(nil)
