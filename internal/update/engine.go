// Package update implements the six erasure-code update schemes evaluated in
// the TSUE paper (§2.2, §5): FO (full overwrite), PL (parity logging), PLR
// (parity logging with reserved space), PARIX (speculative partial writes),
// CoRD (combined raid/delta collection), and TSUE itself (two-stage update
// with the three-layer log). All engines run against the same OSD substrate
// — block store, device model, RPC fabric — mirroring the paper's
// methodology of implementing every scheme inside one file system (ECFS).
package update

import (
	"fmt"
	"slices"
	"time"

	"tsue/internal/blockstore"
	"tsue/internal/logpool"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Host is the OSD-side environment an engine runs in.
type Host interface {
	// NodeID is this OSD's identity.
	NodeID() wire.NodeID
	// Env is the simulation environment (for background recycle processes).
	Env() *sim.Env
	// Store is this OSD's block store.
	Store() *blockstore.Store
	// Code is the cluster's RS code.
	Code() *rs.Code
	// Placement returns the K+M OSDs of a stripe; element i hosts block i.
	Placement(s wire.StripeID) []wire.NodeID
	// Peers returns all OSD node IDs in ring order (includes this node).
	Peers() []wire.NodeID
	// Alive reports whether a peer is reachable (replica target selection).
	Alive(id wire.NodeID) bool
	// Call performs an RPC to a peer OSD.
	Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error)
	// Tracer is the cluster's trace plane; background engine work (TSUE
	// recycle passes) starts its own root spans on it. A nil tracer is a
	// valid disabled one (every obs entry point no-ops on it).
	Tracer() *obs.Tracer
}

// Engine is one update scheme running on one OSD.
type Engine interface {
	// Name returns the scheme name ("fo", "pl", ...).
	Name() string
	// Update applies a client update to a data block this OSD hosts. It
	// returns once the scheme's synchronous phase is durable. sum is
	// wire.Checksum(data), which the caller has just verified: an engine
	// that forwards the same bytes (TSUE's replicas, PARIX's speculative
	// appends) forwards the sum with them instead of computing it again.
	// data stays the caller's — an engine that keeps it copies it.
	Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte, sum uint32) error
	// Handle processes a scheme-internal peer message; handled=false means
	// the message is not for this engine.
	Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (resp wire.Msg, handled bool)
	// Read returns [off, off+size) of a block with the scheme's read-path
	// semantics (TSUE consults its log read cache).
	Read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error)
	// Merge pays the merge debt in scope sc: it merges the state sc covers
	// into the raw block stores, so the stripes it touches are consistent
	// again, and returns once Pending(sc) is false. State outside sc stays.
	// A scope over every stripe (no node, no byte range) needs the caller
	// to fence appends (the update gate) while it runs, or it may never see
	// the covered state empty. A failed node's scope converges with appends
	// to other stripes flowing: once the degraded routes are published no
	// update reaches a degraded stripe's engines, so the covered state can
	// only shrink. The cluster-wide barrier repeats per-OSD merges until a
	// round starts clean everywhere, since recycling forwards work to peers.
	Merge(p *sim.Proc, sc Scope) error
	// Pending reports whether this engine still holds state in scope sc, or
	// is merging state it took from there (a recycle or fold another proc
	// runs counts until it has applied).
	Pending(sc Scope) bool
	// MemBytes is the engine's current log memory footprint.
	MemBytes() int64
	// PeakMemBytes is the high-water mark of MemBytes.
	PeakMemBytes() int64
}

// Scope selects the merge debt Merge pays and Pending reports. The zero
// value covers every stripe except pure overlay.
type Scope struct {
	// Node, when not 0, keeps only the stripes with a block on that node.
	Node wire.NodeID
	// Overlay counts pure overlay: records that have touched neither a data
	// block nor any parity and are replicated, so recovery can rebuild the
	// raw stripe and replay them (§4.2). Only TSUE's active DataLog units
	// are pure overlay.
	Overlay bool
	// S and [Off, End), when End > Off, keep only the state of stripe S that
	// overlaps those bytes of its blocks.
	S        wire.StripeID
	Off, End int64
}

// All covers every stripe, overlay included: merging it empties every log
// (the drain before a scrub and after a recovery cutover).
var All = Scope{Overlay: true}

// Failed is the scope of the settle barrier for failed node f. Failed(0)
// covers every stripe except pure overlay: the least merging that leaves
// every raw stripe consistent (a placement cutover). Failed(f) for f != 0
// covers f's stripes, overlay included: reconstruction reads their raw
// shards during the degraded window, so a retained record would race the
// rebuild when it later applied. The gap between Failed(f) and All is
// TSUE's log-reliability advantage at recovery time.
func Failed(f wire.NodeID) Scope { return Scope{Node: f, Overlay: f != 0} }

// Bytes covers bytes [off, end) of stripe s's blocks, overlay included. RS
// coding works column by column, so once no live engine has the range
// pending, the raw shards of a degraded stripe are final there and
// reconstructing that range of a lost block cannot race the settle.
func Bytes(s wire.StripeID, off, end int64) Scope {
	return Scope{Overlay: true, S: s, Off: off, End: end}
}

// every reports whether sc covers every stripe: no node, no byte range.
func (sc Scope) every() bool { return sc.Node == 0 && sc.End <= sc.Off }

// touches reports whether bl holds bytes in sc's byte range; any record
// does when sc has none.
func (sc Scope) touches(bl *logpool.BlockLog) bool {
	return sc.End <= sc.Off || bl.Touches(sc.Off, sc.End)
}

// Options configures engines; zero values are replaced by defaults.
type Options struct {
	// UnitSize is the TSUE/CoRD log unit size (paper: 16 MiB).
	UnitSize int64
	// MaxUnits is the per-pool unit quota (paper default: 4; Fig. 6 sweeps it).
	MaxUnits int
	// Pools is the number of log pools per log structure per device
	// (paper: 4 on SSD; O4 ablates to 1).
	Pools int
	// Copies is the DataLog replication factor including the primary
	// (paper: 2 on SSD, 3 on HDD).
	Copies int
	// UseDeltaLog enables TSUE's middle log layer (O5; disabled on HDD §5.4).
	UseDeltaLog bool
	// DataLocality / ParityLocality enable two-level-index merging in the
	// DataLog / ParityLog (O1 / O2).
	DataLocality   bool
	ParityLocality bool
	// UseLogPool enables the FIFO log pool (O3). When false, each log
	// structure degrades to a single exclusive log: appends stall while a
	// recycle is in progress.
	UseLogPool bool
	// RecycleBatch is the maximum number of sealed log units one TSUE
	// per-pool recycler drains in a single pass. Units of one batch merge
	// their extents before the read-modify-write, so updates repeated
	// across units collapse before costing device or network work. 1
	// disables batching (the paper's behavior).
	RecycleBatch int
	// RecycleThreshold is the lazy-recycle trigger for PL and PARIX parity
	// logs (bytes per OSD).
	RecycleThreshold int64
	// PLRReserve is the reserved log space adjacent to each parity block.
	PLRReserve int64
	// CordBufferSize is CoRD's fixed collector buffer log size.
	CordBufferSize int64
}

// DefaultOptions returns the paper's SSD-cluster configuration.
func DefaultOptions() Options {
	return Options{
		UnitSize:         16 << 20,
		MaxUnits:         4,
		Pools:            4,
		Copies:           2,
		UseDeltaLog:      true,
		DataLocality:     true,
		ParityLocality:   true,
		UseLogPool:       true,
		RecycleBatch:     4,
		RecycleThreshold: 8 << 20,
		PLRReserve:       64 << 10,
		CordBufferSize:   4 << 20,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.UnitSize == 0 {
		o.UnitSize = d.UnitSize
	}
	if o.MaxUnits == 0 {
		o.MaxUnits = d.MaxUnits
	}
	if o.Pools == 0 {
		o.Pools = d.Pools
	}
	if o.Copies == 0 {
		o.Copies = d.Copies
	}
	if o.RecycleBatch == 0 {
		o.RecycleBatch = d.RecycleBatch
	}
	if o.RecycleBatch < 1 {
		o.RecycleBatch = 1
	}
	if o.RecycleThreshold == 0 {
		o.RecycleThreshold = d.RecycleThreshold
	}
	if o.PLRReserve == 0 {
		o.PLRReserve = d.PLRReserve
	}
	if o.CordBufferSize == 0 {
		o.CordBufferSize = d.CordBufferSize
	}
	return o
}

// New constructs the named engine on host h.
func New(name string, h Host, o Options) (Engine, error) {
	o = o.withDefaults()
	switch name {
	case "fo":
		return newFO(h), nil
	case "pl":
		return newPL(h, o), nil
	case "plr":
		return newPLR(h, o), nil
	case "parix":
		return newParix(h, o), nil
	case "cord":
		return newCord(h, o), nil
	case "tsue":
		return newTsue(h, o), nil
	default:
		return nil, fmt.Errorf("update: unknown engine %q", name)
	}
}

// Names lists the available engines in the paper's comparison order.
func Names() []string { return []string{"fo", "pl", "plr", "parix", "cord", "tsue"} }

// base carries shared plumbing.
type base struct {
	h     Host
	locks map[wire.BlockID]*sim.Resource
}

func newBase(h Host) base {
	return base{h: h, locks: make(map[wire.BlockID]*sim.Resource)}
}

// lockBlock serializes read-modify-write update paths per block (the paper's
// block-level locking, §4).
func (b *base) lockBlock(p *sim.Proc, blk wire.BlockID) {
	l, ok := b.locks[blk]
	if !ok {
		l = b.h.Env().NewResource("blklock", 1)
		b.locks[blk] = l
	}
	l.Acquire(p)
}

func (b *base) unlockBlock(blk wire.BlockID) { b.locks[blk].Release() }

// parityBlock returns the BlockID of parity j of the stripe.
func (b *base) parityBlock(s wire.StripeID, j int) wire.BlockID {
	return wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(b.h.Code().K + j)}
}

// in reports whether scope sc covers stripe s (its byte range aside).
func (b *base) in(sc Scope, s wire.StripeID) bool {
	if sc.End > sc.Off && s != sc.S {
		return false
	}
	return sc.Node == 0 || slices.Contains(b.h.Placement(s), sc.Node)
}

// anyIn reports whether an entry of m, keyed by block, is in scope sc:
// its stripe is covered and held reports state in sc's byte range.
func anyIn[V any](b *base, sc Scope, m map[wire.BlockID]V, held func(V) bool) bool {
	for blk, v := range m {
		//lint:allow maporder(in and held are pure lookups; an existence test has the same answer in any order)
		if b.in(sc, blk.StripeID()) && held(v) {
			return true
		}
	}
	return false
}

// always is the held predicate of map entries whose presence is the state:
// an in-flight merge, or a reserve whose merge also waits one out.
func always[V any](V) bool { return true }

// keysIn returns, in block order, the keys of m that anyIn would find.
func keysIn[V any](b *base, sc Scope, m map[wire.BlockID]V, held func(V) bool) []wire.BlockID {
	var blks []wire.BlockID
	for blk, v := range m {
		//lint:allow maporder(the keys are sorted below)
		if b.in(sc, blk.StripeID()) && held(v) {
			blks = append(blks, blk)
		}
	}
	sortBlocks(blks)
	return blks
}

// poolIn reports whether a unit of the pool not yet recycled holds a
// record in scope sc; the active (unsealed) unit counts only when active
// is set.
func (b *base) poolIn(pool *logpool.Pool, sc Scope, active bool) bool {
	for _, u := range pool.Units() {
		if u.State != logpool.Recycled && (active || u.State != logpool.Empty) && b.unitIn(u, sc) {
			return true
		}
	}
	return false
}

// unitIn reports whether log unit u holds a record in scope sc. A byte
// range looks up only its stripe's blocks.
func (b *base) unitIn(u *logpool.Unit, sc Scope) bool {
	switch {
	case sc.End > sc.Off:
		if !b.in(sc, sc.S) {
			return false
		}
		c := b.h.Code()
		for i := 0; i < c.K+c.M; i++ {
			bl := u.Lookup(wire.BlockID{Ino: sc.S.Ino, Stripe: sc.S.Stripe, Index: uint16(i)})
			if bl != nil && sc.touches(bl) {
				return true
			}
		}
		return false
	case sc.Node == 0:
		return u.Appended > 0
	}
	return slices.ContainsFunc(u.Blocks(), func(blk wire.BlockID) bool { return b.in(sc, blk.StripeID()) })
}

// readModifyWrite performs the in-place data-block update shared by FO, PL,
// PLR and CoRD: read the old range (random read), overwrite with the new
// data (random write), and return the data delta (Equation (2)). The delta
// is a fresh buffer — callers put it on the wire — that starts as a copy of
// the new bytes and has the old ones XORed in where they live: nothing is
// zeroed first and the old bytes are never copied out of the store.
func (b *base) readModifyWrite(p *sim.Proc, blk wire.BlockID, off int64, data []byte) ([]byte, error) {
	delta := slices.Clone(data)
	err := b.h.Store().Modify(p, blk, off, int64(len(data)), func(cur []byte) {
		rs.DataDelta(delta, delta, cur)
		// Zero-width codec marker: the simulator charges no CPU for the
		// delta computation, but the hop still shows in traces.
		obs.SpanOn(p, obs.StageCodec, "codec:data-delta", b.h.NodeID())()
		copy(cur, data)
	})
	if err != nil {
		return nil, err
	}
	return delta, nil
}

// applyParityDelta folds a ready parity delta into the parity block in place
// (random read + random overwrite on the parity OSD). The per-block lock
// makes the read-modify-write atomic: concurrent deltas for one parity block
// commute (XOR) but must not interleave mid-RMW.
func (b *base) applyParityDelta(p *sim.Proc, blk wire.BlockID, off int64, delta []byte) error {
	b.lockBlock(p, blk)
	defer b.unlockBlock(blk)
	return b.foldParityDelta(p, blk, off, delta)
}

// foldParityDelta is applyParityDelta without the block lock, for a caller
// that holds it around several disjoint extents of one block.
func (b *base) foldParityDelta(p *sim.Proc, blk wire.BlockID, off int64, delta []byte) error {
	return b.h.Store().Modify(p, blk, off, int64(len(delta)), func(cur []byte) {
		rs.ApplyParityDelta(cur, delta)
		obs.SpanOn(p, obs.StageCodec, "codec:parity-fold", b.h.NodeID())()
	})
}

// Read is the default read path: straight from the block store (data
// blocks are updated in place).
func (b *base) Read(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	return b.h.Store().ReadRange(p, blk, off, size)
}

// callAck performs an RPC and returns its outcome as wire.AckErr reads it.
func (b *base) callAck(p *sim.Proc, to wire.NodeID, req wire.Msg) error {
	return wire.AckErr(b.h.Call(p, to, req))
}

// fanout runs one call per target in parallel and waits for all, returning
// the first error. A single target is called inline, without a proc.
func (b *base) fanout(p *sim.Proc, n int, fn func(hp *sim.Proc, i int) error) error {
	if n == 1 {
		return fn(p, 0)
	}
	return sim.Parallel(p, "fanout", n, fn)
}

// logParityDeltas is the parity-logging update (PL, PLR): overwrite the data
// block in place, then append each parity's delta to that parity OSD's log
// in parallel.
func (b *base) logParityDeltas(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	b.lockBlock(p, blk)
	delta, err := b.readModifyWrite(p, blk, off, data)
	b.unlockBlock(blk)
	if err != nil {
		return err
	}
	osds := b.h.Placement(blk.StripeID())
	k, m := b.h.Code().K, b.h.Code().M
	return b.fanout(p, m, func(hp *sim.Proc, j int) error {
		pd := mulDelta(b.h.Code(), j, int(blk.Index), delta)
		req := &wire.DeltaAppend{
			Blk: blk, ParityIdx: uint16(j), Off: off, Data: pd,
			Kind: wire.KindParityDelta, Sum: wire.Checksum(pd),
		}
		return b.callAck(hp, osds[k+j], req)
	})
}

// logSpan opens a journal-stage span around one engine log append so the
// device write inside is charged to the journal stage of a trace breakdown.
func (b *base) logSpan(p *sim.Proc, name string) func() {
	return obs.SpanOn(p, obs.StageJournal, name, b.h.NodeID())
}

// errAck wraps an error into an Ack response.
func errAck(err error) *wire.Ack {
	if err == nil {
		return wire.OK
	}
	return &wire.Ack{Err: err}
}

// mulDelta returns coef * delta as a fresh buffer. Every caller puts it in
// one parity-delta message and never touches it again: the buffer is built
// to be moved to that message's receiver.
func mulDelta(c *rs.Code, parity, dataIdx int, delta []byte) []byte {
	out := make([]byte, len(delta))
	c.ParityDelta(parity, dataIdx, out, delta)
	return out
}

// LayerStats aggregates residency timing for one TSUE log layer (Table 2).
//
//lint:allow obsregistry(pre-registry residency snapshot keyed per layer; Table 2 reproduction consumes it directly)
type LayerStats struct {
	AppendN     int64
	AppendTime  time.Duration
	BufferN     int64
	BufferTime  time.Duration
	RecycleN    int64 // recycled extents
	RecycleTime time.Duration
	Units       int64 // recycled units
}

// MeanAppend returns the mean per-record append latency.
func (l LayerStats) MeanAppend() time.Duration { return meanDur(l.AppendTime, l.AppendN) }

// MeanBuffer returns the mean unit residency between first append and
// recycle start.
func (l LayerStats) MeanBuffer() time.Duration { return meanDur(l.BufferTime, l.BufferN) }

// MeanRecycle returns the mean per-extent recycle processing time.
func (l LayerStats) MeanRecycle() time.Duration { return meanDur(l.RecycleTime, l.RecycleN) }

func meanDur(sum time.Duration, n int64) time.Duration {
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ResidencyReporter is implemented by TSUE for Table 2.
type ResidencyReporter interface {
	Residency() map[string]LayerStats
}

// Replayer is implemented by engines with a dedicated entry point for
// recovery-replayed records (surrogate-journal and DataLog-replica items).
// TSUE merges replays through its normal two-stage path — DataLog append,
// replication, asynchronous recycle — while tracking them as recovery
// traffic. Engines without the hook take replays through Update.
type Replayer interface {
	ReplayInto(p *sim.Proc, blk wire.BlockID, off int64, data []byte, sum uint32) error
}

// Replay routes one recovered record into eng: through its ReplayInto hook
// when implemented, otherwise through the ordinary update path (correct for
// every in-place scheme, where replaying IS updating).
func Replay(p *sim.Proc, eng Engine, blk wire.BlockID, off int64, data []byte, sum uint32) error {
	if r, ok := eng.(Replayer); ok {
		return r.ReplayInto(p, blk, off, data, sum)
	}
	return eng.Update(p, blk, off, data, sum)
}

// LogMigrator is implemented by engines whose replayable pure-overlay log
// records must follow a block to its new home when placement changes —
// TSUE's active DataLog units, which are neither applied to the raw block
// nor propagated to parity yet. ExtractBlockLog removes and returns blk's
// overlay records (merged extents, offset order); the migration engine
// replays them at the block's new home through the Replay hook and retires
// their reliability replicas cluster-wide (wire.ReplicaRetire), so a later
// failure of the old home cannot resurrect pre-migration state. The caller
// must hold the cluster's update fence and have settled the engine first
// (no sealed units may still reference blk). In-place schemes don't
// implement the interface: for them settling IS draining, and a drained
// block has no log to follow it.
type LogMigrator interface {
	ExtractBlockLog(p *sim.Proc, blk wire.BlockID) []wire.ReplicaItem
}

// StripeResetter is implemented by engines that keep cross-update baseline
// state per stripe which a block remap invalidates. PARIX tracks which
// ranges already shipped their original value; after recovery rebuilds a
// parity block on a fresh OSD, that coverage must be forgotten so the next
// update reships the originals and the new holder can form correct deltas
// against its re-encoded parity baseline (Equation (4)).
type StripeResetter interface {
	ResetStripe(s wire.StripeID)
}
