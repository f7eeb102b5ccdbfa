package cluster

import (
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
}

func newOSD(c *Cluster, id wire.NodeID) *OSD {
	dev := device.New(c.Env, fmt.Sprintf("osd%d", id), c.Cfg.DeviceKind, c.Cfg.DeviceParams)
	return &OSD{
		c:        c,
		id:       id,
		dev:      dev,
		store:    blockstore.New(dev, c.Cfg.BlockSize),
		journals: make(map[wire.NodeID]*journal),
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
			// exempt from routing checks by design.
			buf, err = o.store.ReadRange(p, v.Blk, v.Off, int64(v.Size))
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
// shard slice with the read shards filled in — the fan-in shared by block
// reconstruction, stripe repair, and degraded reads. The primary survivor
// set is the first K live shards in index order; with alt set the LAST K
// live shards are chosen instead, so whenever more than K shards survive a
// hedged read's two legs fan in over different sources and a straggler in
// one set need not stall both.
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
		for i := 0; i < cfg.K+cfg.M && len(sources) < cfg.K; i++ {
			if uint16(i) == blk.Index || o.c.Fabric.Down(osds[i]) {
				continue
			}
			sources = append(sources, i)
		}
	}
	if len(sources) < cfg.K {
		return nil, fmt.Errorf("recover %v: only %d surviving shards", blk, len(sources))
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

// recoverBlock reconstructs one lost block from K surviving peers and stores
// it locally. Peer reads run in parallel — reconstruction bandwidth is bound
// by the K fan-in plus the local streaming write (Fig. 8b). When the
// request carries Reencode, the full-stripe parity repair runs instead.
func (o *OSD) recoverBlock(p *sim.Proc, req *wire.RecoverBlock) error {
	if req.Reencode {
		return o.recoverStripeRepair(p, req.Blk)
	}
	blk := req.Blk
	shards, err := o.readSurvivingShards(p, blk, 0, o.c.Cfg.BlockSize, false)
	if err != nil {
		return err
	}
	if err := o.c.Code.Reconstruct(shards); err != nil {
		return err
	}
	return o.store.Put(p, blk, shards[blk.Index])
}

// recoverStripeRepair rebuilds a lost block AND re-encodes the stripe's
// whole parity set from its data blocks, overwriting the live parity
// holders in place. It runs when a plain reconstruction could bake a torn
// stripe in (cluster.stripeRepair): a dead first-parity node whose
// cross-parity delta buffer (TSUE DeltaLog / CoRD collector) died with it,
// or a dead data holder that may have died mid-parity-propagation (FO's
// sequential path, PL/PLR/PARIX's fan-out), leaving live parities
// disagreeing about its last update. Reconstructing the lost block from the
// first K live shards and then re-encoding makes every surviving parity
// agree with whatever update subset those K shards witnessed.
func (o *OSD) recoverStripeRepair(p *sim.Proc, blk wire.BlockID) error {
	cfg := o.c.Cfg
	s := blk.StripeID()
	osds := o.c.Placement(s)
	shards, err := o.readSurvivingShards(p, blk, 0, cfg.BlockSize, false)
	if err != nil {
		return err
	}
	// Fills every missing shard, including blk and any unread parity.
	if err := o.c.Code.Reconstruct(shards); err != nil {
		return err
	}
	// Re-encode the parity set from the (now complete) data shards so all
	// parities agree.
	parity := make([][]byte, cfg.M)
	for j := range parity {
		parity[j] = make([]byte, cfg.BlockSize)
	}
	if err := o.c.Code.Encode(shards[:cfg.K], parity); err != nil {
		return err
	}
	if int(blk.Index) < cfg.K {
		if err := o.store.Put(p, blk, shards[blk.Index]); err != nil {
			return err
		}
	} else if err := o.store.Put(p, blk, parity[int(blk.Index)-cfg.K]); err != nil {
		return err
	}
	for j := 0; j < cfg.M; j++ {
		if cfg.K+j == int(blk.Index) || o.c.Fabric.Down(osds[cfg.K+j]) {
			continue
		}
		pblk := wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(cfg.K + j)}
		req := &wire.PutBlock{Blk: pblk, Data: parity[j], Sum: wire.Checksum(parity[j])}
		if err := wire.AckErr(o.Call(p, osds[cfg.K+j], req)); err != nil {
			return fmt.Errorf("parity repair %v: %w", pblk, err)
		}
	}
	return nil
}
