package cluster

import (
	"errors"
	"fmt"

	"tsue/internal/blockstore"
	"tsue/internal/device"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// OSD is one object storage server: a device, a block store, and the update
// engine. It implements update.Host.
type OSD struct {
	c      *Cluster
	id     wire.NodeID
	dev    *device.Disk
	store  *blockstore.Store
	engine update.Engine
	// journals holds degraded-update journals this OSD keeps as surrogate
	// for failed peers (see degraded.go).
	journals map[wire.NodeID]*journal
	// recSrcReadBytes counts bytes this OSD served as a reconstruction
	// source (rebuild fan-in and degraded on-the-fly reads) since the last
	// recovery-counter reset — the fan-out measure of the placement
	// experiment.
	recSrcReadBytes int64
	// jrSentMsgs/jrSentBytes count acked JournalReplica sends this OSD made
	// as a surrogate (quorum write traffic); jrHeldMsgs/jrHeldBytes count
	// records it persisted as a quorum holder. Harness quorum-traffic
	// accounting (Cluster.JournalQuorumStats).
	jrSentMsgs  int64
	jrSentBytes int64
	jrHeldMsgs  int64
	jrHeldBytes int64
	// rebuildBufs holds this OSD's read-ahead as a rebuild source: one
	// whole shard block per open rebuild stream (handleRebuildRead).
	rebuildBufs map[uint64]*rebuildBuf
}

func newOSD(c *Cluster, id wire.NodeID) *OSD {
	dev := device.New(c.Env, fmt.Sprintf("osd%d", id), c.Cfg.DeviceKind, c.Cfg.DeviceParams)
	return &OSD{
		c:           c,
		id:          id,
		dev:         dev,
		store:       blockstore.New(dev, c.Cfg.BlockSize),
		journals:    make(map[wire.NodeID]*journal),
		rebuildBufs: make(map[uint64]*rebuildBuf),
	}
}

// ---- update.Host ----

// NodeID returns this OSD's node ID.
func (o *OSD) NodeID() wire.NodeID { return o.id }

// Env returns the simulation environment.
func (o *OSD) Env() *sim.Env { return o.c.Env }

// Store returns this OSD's block store.
func (o *OSD) Store() *blockstore.Store { return o.store }

// Code returns the cluster's RS code.
func (o *OSD) Code() *rs.Code { return o.c.Code }

// Placement returns the stripe's hosting OSDs.
func (o *OSD) Placement(s wire.StripeID) []wire.NodeID { return o.c.Placement(s) }

// Peers returns all OSD node IDs in ring order.
func (o *OSD) Peers() []wire.NodeID { return o.c.osdIDs() }

// Alive reports whether a peer is reachable.
func (o *OSD) Alive(id wire.NodeID) bool { return !o.c.Fabric.Down(id) }

// Call performs an RPC to a peer node.
func (o *OSD) Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error) {
	return o.c.Fabric.Call(p, o.id, to, req)
}

// Tracer exposes the cluster's trace plane: background engine work — TSUE
// recycle passes — starts its own root spans here.
func (o *OSD) Tracer() *obs.Tracer { return o.c.Obs.Tracer }

// Device exposes the OSD's disk (harness and tests).
func (o *OSD) Device() *device.Disk { return o.dev }

// JournalBytes returns the total bytes this OSD ever appended to surrogate
// journals as the PRIMARY surrogate (counts survive cutover; ring-successor
// durability copies are excluded) — the surrogate-load measure of the
// placement experiment.
func (o *OSD) JournalBytes() int64 {
	var n int64
	for _, j := range o.journals {
		n += j.primary
	}
	return n
}

// ---- RPC dispatch ----

func (o *OSD) handle(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
	// Every payload is verified here, before any side effect: a corrupted
	// block must never become the stored copy, a corrupted delta applied
	// to data or parity would tear the stripe undetectably, a corrupted
	// replay record would bake wrong bytes into a rebuilt block, and a
	// corrupted journal copy acked into the quorum could later read-repair
	// garbage over good records. The engines never see unverified bytes.
	if err := wire.Verify(m); err != nil {
		o.c.noteCorruption()
		return &wire.Ack{Err: fmt.Errorf("osd %d: %s: %w", o.id, wire.Name(m), err)}
	}
	switch v := m.(type) {
	case *wire.PutBlock:
		if err := o.store.Put(p, v.Blk, v.Data); err != nil {
			return &wire.Ack{Err: err}
		}
		return wire.OK
	case *wire.ReadBlock:
		var buf []byte
		var err error
		if v.Raw {
			// Server-internal path (recovery fan-in, block migration):
			// exempt from routing checks by design. Rot found here travels
			// as the response's carried Err, which no payload check sees,
			// so it is counted here, as a rebuild stream's source does.
			buf, err = o.store.ReadRange(p, v.Blk, v.Off, int64(v.Size))
			if errors.Is(err, wire.ErrChecksum) {
				o.c.noteCorruption()
			}
		} else {
			// A read that raced into a cutover fence must not observe the
			// extract-replay gap; one that raced past a finished cutover
			// must re-resolve.
			if o.c.migrationFenced(v.Blk) {
				return &wire.ReadResp{Err: errMigrating}
			}
			if !o.c.epochOK(v.Blk, v.Epoch) {
				return &wire.ReadResp{Err: errStaleEpoch}
			}
			buf, err = o.engine.Read(p, v.Blk, v.Off, int64(v.Size))
		}
		if err != nil {
			return &wire.ReadResp{Err: err}
		}
		return &wire.ReadResp{Data: buf, Sum: wire.Checksum(buf)}
	case *wire.RebuildRead:
		return o.handleRebuildRead(p, v)
	case *wire.Update:
		if !o.c.epochOK(v.Blk, v.Epoch) {
			return &wire.Ack{Err: errStaleEpoch}
		}
		if err := o.engine.Update(p, v.Blk, v.Off, v.Data, v.Sum); err != nil {
			return &wire.Ack{Err: err}
		}
		return wire.OK
	case *wire.Drain:
		if err := o.engine.Merge(p, update.All); err != nil {
			return &wire.Ack{Err: err}
		}
		return wire.OK
	case *wire.Settle:
		if err := o.engine.Merge(p, update.Failed(v.Failed)); err != nil {
			return &wire.Ack{Err: err}
		}
		return wire.OK
	case *wire.RecoverBlock:
		if err := o.recoverBlock(p, v); err != nil {
			return &wire.Ack{Err: err}
		}
		return wire.OK
	case *wire.ReplayUpdate:
		if err := o.engine.Update(p, v.Blk, v.Off, v.Data, v.Sum); err != nil {
			return &wire.Ack{Err: err}
		}
		return wire.OK
	case *wire.DegradedUpdate:
		return o.handleDegradedUpdate(p, v)
	case *wire.DegradedRead:
		return o.handleDegradedRead(p, v)
	case *wire.JournalReplica:
		// Durability copy of a surrogate-journal record, held as a member of
		// the surrogate's quorum set: persist, keep the sequenced item keyed
		// by its surrogate so a promotion can read-repair across holders,
		// and ack — the surrogate acks the client only after every reachable
		// holder has done this.
		j := o.journalFor(v.Failed)
		if j.repl == nil {
			j.repl = make(map[wire.NodeID][]wire.JournalItem)
		}
		j.repl[v.Surrogate] = append(j.repl[v.Surrogate], wire.JournalItem{
			Seq: v.Seq, Blk: v.Blk, Off: v.Off, Data: append([]byte(nil), v.Data...),
		})
		o.journalPersistReplica(p, j, int64(len(v.Data)))
		o.jrHeldMsgs++
		o.jrHeldBytes += int64(len(v.Data))
		return wire.OK
	case *wire.JournalFetch:
		return o.handleJournalFetch(p, v)
	case *wire.JournalReplay:
		return o.handleJournalReplay(p, v)
	case *wire.MigrateBlock:
		return o.handleMigrateBlock(p, v)
	case *wire.MigrateLog:
		return o.handleMigrateLog(p, v)
	default:
		if resp, handled := o.engine.Handle(p, from, m); handled {
			return resp
		}
		return &wire.Ack{Err: fmt.Errorf("osd %d: unhandled message %s", o.id, wire.Name(m))}
	}
}

// handleMigrateBlock runs at a migrating block's NEW home: pull the raw
// block from its old home and store it locally. Raw is correct by
// contract with the migration engine — either the old home's logs were
// settled under the fence before the authoritative copy, or a catch-up
// re-copy and a log replay follow. With Reconstruct set (the old home is
// dead), the block is rebuilt from K surviving stripe peers instead —
// recovery's reconstruction running as the migration's finish policy, so
// it must be called under the fence after the settle barrier.
func (o *OSD) handleMigrateBlock(p *sim.Proc, v *wire.MigrateBlock) wire.Msg {
	if v.Reconstruct {
		if err := o.recoverBlock(p, &wire.RecoverBlock{Blk: v.Blk, Reencode: v.Reencode}); err != nil {
			return &wire.Ack{Err: fmt.Errorf("migrate reconstruct %v: %w", v.Blk, err)}
		}
		return wire.OK
	}
	data, err := o.c.readData(o.Call(p, v.From, &wire.ReadBlock{
		Blk: v.Blk, Off: 0, Size: int32(o.c.Cfg.BlockSize), Raw: true,
	}))
	if err != nil {
		return &wire.Ack{Err: fmt.Errorf("migrate pull %v from %d: %w", v.Blk, v.From, err)}
	}
	if err := o.store.Put(p, v.Blk, data); err != nil {
		return &wire.Ack{Err: err}
	}
	return wire.OK
}

// handleMigrateLog runs at a migrating block's OLD home: extract the
// replayable pure-overlay log records still held for the block (TSUE's
// active DataLog items; in-place engines have none — they drained at the
// settle barrier) and retire their reliability replicas cluster-wide, so a
// later failure of this node cannot replay pre-migration state over the
// block's new home. The records return to the migration engine, which
// replays them at the new home.
func (o *OSD) handleMigrateLog(p *sim.Proc, v *wire.MigrateLog) wire.Msg {
	lm, ok := o.engine.(update.LogMigrator)
	if !ok {
		return &wire.ReplicaResp{}
	}
	items := lm.ExtractBlockLog(p, v.Blk)
	if len(items) > 0 {
		for _, peer := range o.c.osdIDs() {
			if peer == o.id || o.c.Fabric.Down(peer) {
				continue
			}
			// Best effort: a holder that is already gone has nothing to
			// retire anyway.
			_, _ = o.Call(p, peer, &wire.ReplicaRetire{Node: o.id, Blk: v.Blk})
		}
	}
	return &wire.ReplicaResp{Items: items}
}

// readSurvivingShards reads [off, off+size) of K live shards of blk's
// stripe (skipping blk itself) with parallel raw reads, returning the K+M
// shard slice with the read shards filled in — the fan-in of a degraded
// read, which reconstructs a small range on the fly (the rebuild streams
// its shards instead: streamShards). The primary survivor set is the first
// K live shards in index order; with alt set the LAST K live shards are
// chosen instead, so whenever more than K shards survive a hedged read's
// two legs fan in over different sources and a straggler in one set need
// not stall both.
func (o *OSD) readSurvivingShards(p *sim.Proc, blk wire.BlockID, off, size int64, alt bool) ([][]byte, error) {
	cfg := o.c.Cfg
	s := blk.StripeID()
	osds := o.c.Placement(s)
	shards := make([][]byte, cfg.K+cfg.M)
	var sources []int
	if alt {
		for i := cfg.K + cfg.M - 1; i >= 0 && len(sources) < cfg.K; i-- {
			if uint16(i) == blk.Index || o.c.Fabric.Down(osds[i]) {
				continue
			}
			sources = append(sources, i)
		}
	} else {
		sources = o.liveSources(blk, osds)
	}
	if len(sources) < cfg.K {
		return nil, o.shortOfSources(blk, osds, len(sources))
	}
	if err := sim.Parallel(p, "recover-read", len(sources), func(hp *sim.Proc, i int) error {
		idx := sources[i]
		sblk := wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(idx)}
		// A corrupt shard fed into rs.Reconstruct would silently rebuild
		// wrong bytes — the one place wire rot is most dangerous.
		data, err := o.c.readData(o.Call(hp, osds[idx], &wire.ReadBlock{Blk: sblk, Off: off, Size: int32(size), Raw: true}))
		if err != nil {
			return fmt.Errorf("recover read %v: %w", sblk, err)
		}
		o.c.OSDByID(osds[idx]).recSrcReadBytes += int64(len(data))
		shards[idx] = data
		return nil
	}); err != nil {
		return nil, err
	}
	return shards, nil
}

// liveSources returns the indexes of the first K live shards of blk's
// stripe in index order, blk itself excluded; fewer when fewer survive.
func (o *OSD) liveSources(blk wire.BlockID, osds []wire.NodeID) []int {
	cfg := o.c.Cfg
	sources := make([]int, 0, cfg.K)
	for i := 0; i < cfg.K+cfg.M && len(sources) < cfg.K; i++ {
		if uint16(i) == blk.Index || o.c.Fabric.Down(osds[i]) {
			continue
		}
		sources = append(sources, i)
	}
	return sources
}

// shortOfSources is the error of a reconstruction of blk that found only
// n < K sources among its stripe's members osds. It wraps ErrStripeLost
// only when more than M members are down, past the code's budget; with
// fewer, the caller's own block is among the members it may not read (a
// re-encode of a live parity), and the stripe is still recoverable.
func (o *OSD) shortOfSources(blk wire.BlockID, osds []wire.NodeID, n int) error {
	down := 0
	for _, id := range osds {
		if o.c.Fabric.Down(id) {
			down++
		}
	}
	if down > o.c.Cfg.M {
		return fmt.Errorf("recover %v: %d of %d members down: %w", blk, down, len(osds), ErrStripeLost)
	}
	return fmt.Errorf("recover %v: only %d surviving shards", blk, n)
}

// A rebuild stream moves each source's shard in rebuildSlice-byte slices,
// at most rebuildWindow slices of one block in flight. Each source still
// reads its shard off the device once (handleRebuildRead); only the
// network transfers are sliced, so a source's NIC sends foreground replies
// between the slices instead of queueing them behind a whole shard.
const (
	rebuildSlice  = 64 << 10
	rebuildWindow = 4
)

// rebuildBuf is a rebuild source's read-ahead for one stream: the whole
// shard block, read and verified on the stream's first request, and the
// bytes sent from it so far.
type rebuildBuf struct {
	loaded *sim.Cond // broadcast once data or err is set
	done   bool
	data   []byte
	err    error
	sent   int64
}

// handleRebuildRead answers one slice of a rebuild stream. The stream's
// first request reads the whole shard block off the device and verifies
// every granule, as ReadRange does; requests that arrive during that read
// wait for it. Every slice is answered from the buffer, which is dropped
// once every byte has been sent or when a Size-0 request ends the stream
// early (the target's rebuild failed, perhaps on this read's error).
func (o *OSD) handleRebuildRead(p *sim.Proc, v *wire.RebuildRead) wire.Msg {
	if v.Size == 0 {
		delete(o.rebuildBufs, v.Stream)
		return &wire.ReadResp{}
	}
	b := o.rebuildBufs[v.Stream]
	if b == nil {
		b = &rebuildBuf{loaded: sim.NewCond(o.c.Env)}
		o.rebuildBufs[v.Stream] = b
		b.data, b.err = o.store.ReadRange(p, v.Blk, 0, o.c.Cfg.BlockSize)
		if errors.Is(b.err, wire.ErrChecksum) {
			o.c.noteCorruption()
		}
		b.done = true
		b.loaded.Broadcast()
	}
	for !b.done {
		b.loaded.Wait(p)
	}
	if b.err != nil {
		// Kept until the target ends the stream, so a slice that arrives
		// later fails the same way instead of reading the shard again.
		return &wire.ReadResp{Err: b.err}
	}
	end := v.Off + int64(v.Size)
	if v.Off < 0 || end > int64(len(b.data)) {
		return &wire.ReadResp{Err: fmt.Errorf("osd %d: rebuild read [%d,%d) of %v outside its %d bytes", o.id, v.Off, end, v.Blk, len(b.data))}
	}
	data := b.data[v.Off:end]
	if b.sent += int64(v.Size); b.sent >= int64(len(b.data)) {
		delete(o.rebuildBufs, v.Stream)
	}
	return &wire.ReadResp{Data: data, Sum: wire.Checksum(data)}
}

// streamShards is the rebuild fan-in for lost block blk. It takes the
// stripe's first K live shards as sources (blk excluded) and asks each for
// its shard slice by slice (RebuildRead), one stream per source, at most
// rebuildWindow slices in flight. Slices start in offset order; once all K
// pieces of a slice have landed, fn gets the slice's offset, its length
// and the K+M shard slice with the sources' pieces filled in, which it may
// fill further but whose pieces it must not write (they are the sources'
// buffers). A failed read or fn error ends the rebuild: no new slice
// starts, and every live source is told to drop its buffer.
func (o *OSD) streamShards(p *sim.Proc, blk wire.BlockID, fn func(off, n int64, shards [][]byte) error) error {
	cfg := o.c.Cfg
	s := blk.StripeID()
	osds := o.c.Placement(s)
	sources := o.liveSources(blk, osds)
	if len(sources) < cfg.K {
		return o.shortOfSources(blk, osds, len(sources))
	}
	shardOf := func(idx int) wire.BlockID {
		return wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(idx)}
	}
	streams := make([]uint64, len(sources))
	for i := range streams {
		o.c.rebuildStreams++
		streams[i] = o.c.rebuildStreams
	}
	size := cfg.BlockSize
	var next int64
	failed := false
	err := sim.Parallel(p, "rebuild-window", int(min(rebuildWindow, (size+rebuildSlice-1)/rebuildSlice)), func(wp *sim.Proc, _ int) error {
		for !failed && next < size {
			off, n := next, min(rebuildSlice, size-next)
			next += n
			shards := make([][]byte, cfg.K+cfg.M)
			err := sim.Parallel(wp, "recover-read", len(sources), func(hp *sim.Proc, i int) error {
				idx := sources[i]
				// A corrupt shard fed into the reconstruction would silently
				// rebuild wrong bytes — the one place wire rot is most
				// dangerous.
				req := &wire.RebuildRead{Blk: shardOf(idx), Stream: streams[i], Off: off, Size: int32(n)}
				data, err := o.c.readData(o.Call(hp, osds[idx], req))
				if err != nil {
					return fmt.Errorf("recover read %v: %w", req.Blk, err)
				}
				o.c.OSDByID(osds[idx]).recSrcReadBytes += int64(len(data))
				shards[idx] = data
				return nil
			})
			if err == nil {
				err = fn(off, n, shards)
			}
			if err != nil {
				failed = true
				return err
			}
		}
		return nil
	})
	if err != nil {
		for i, idx := range sources {
			if !o.c.Fabric.Down(osds[idx]) {
				// Best effort: a source cut off now cannot be told, and its
				// buffer is never read by another stream.
				_, _ = o.Call(p, osds[idx], &wire.RebuildRead{Blk: shardOf(idx), Stream: streams[i]})
			}
		}
	}
	return err
}

// recoverBlock reconstructs one lost block from K surviving peers and stores
// it locally. The peers' shards stream in slices (streamShards), and each
// slice of the block is rebuilt as it lands — reconstruction bandwidth is
// bound by the K fan-in plus the local streaming write (Fig. 8b). When the
// request carries Reencode, the full-stripe parity repair runs instead.
func (o *OSD) recoverBlock(p *sim.Proc, req *wire.RecoverBlock) error {
	if req.Reencode {
		return o.recoverStripeRepair(p, req.Blk)
	}
	blk := req.Blk
	out := make([]byte, o.c.Cfg.BlockSize)
	want := []int{int(blk.Index)}
	if err := o.streamShards(p, blk, func(off, n int64, shards [][]byte) error {
		shards[blk.Index] = out[off : off+n]
		return o.c.Code.ReconstructSome(shards, want)
	}); err != nil {
		return err
	}
	return o.store.Put(p, blk, out)
}

// recoverStripeRepair rebuilds a block AND re-encodes the stripe's whole
// parity set from its data blocks, overwriting the live parity holders in
// place. A rebuild runs it when a plain reconstruction could bake a torn
// stripe in (cluster.stripeRepair): a dead data holder that may have died
// mid-parity-propagation (FO's sequential path, PL/PLR/PARIX's fan-out),
// leaving live parities disagreeing about its last update, or, with no
// window, a dead first-parity node whose cross-parity delta buffer (TSUE
// DeltaLog / CoRD collector) died with it. A window's settle runs it for
// the latter on a live parity's own holder, with blk that parity
// (cluster.reencode). Reconstructing the lost block from the
// first K live shards and then re-encoding makes every surviving parity
// agree with whatever update subset those K shards witnessed. The shards
// stream in as for recoverBlock; each slice rebuilds the data shards no
// source sent and re-encodes the parity slices. Once the last slice is
// done, the local store and every live parity's PutBlock are written at
// once.
func (o *OSD) recoverStripeRepair(p *sim.Proc, blk wire.BlockID) error {
	cfg := o.c.Cfg
	s := blk.StripeID()
	osds := o.c.Placement(s)
	// bufs holds the whole-block outputs: every data block no source sends
	// (blk among them when it is a data block) and the M parities.
	bufs := make([][]byte, cfg.K+cfg.M)
	output := func(i int) []byte {
		if bufs[i] == nil {
			bufs[i] = make([]byte, cfg.BlockSize)
		}
		return bufs[i]
	}
	if err := o.streamShards(p, blk, func(off, n int64, shards [][]byte) error {
		var want []int
		for i := 0; i < cfg.K; i++ {
			if shards[i] == nil {
				shards[i] = output(i)[off : off+n]
				want = append(want, i)
			}
		}
		if err := o.c.Code.ReconstructSome(shards, want); err != nil {
			return err
		}
		// Re-encode the parity slices from the (now complete) data slices
		// so all parities agree.
		parity := make([][]byte, cfg.M)
		for j := range parity {
			parity[j] = output(cfg.K + j)[off : off+n]
		}
		return o.c.Code.Encode(shards[:cfg.K], parity)
	}); err != nil {
		return err
	}
	var live []int
	for j := cfg.K; j < cfg.K+cfg.M; j++ {
		if j != int(blk.Index) && !o.c.Fabric.Down(osds[j]) {
			live = append(live, j)
		}
	}
	return sim.Parallel(p, "stripe-repair-write", 1+len(live), func(hp *sim.Proc, i int) error {
		if i == 0 {
			return o.store.Put(hp, blk, bufs[blk.Index])
		}
		j := live[i-1]
		pblk := wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(j)}
		req := &wire.PutBlock{Blk: pblk, Data: bufs[j], Sum: wire.Checksum(bufs[j])}
		if err := wire.AckErr(o.Call(hp, osds[j], req)); err != nil {
			return fmt.Errorf("parity repair %v: %w", pblk, err)
		}
		return nil
	})
}
