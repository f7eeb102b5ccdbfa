// Package cluster implements ECFS, the erasure-coded cluster file system the
// TSUE paper builds and evaluates on (§4): a metadata server (MDS), object
// storage servers (OSDs) and clients, glued by the RPC fabric. Clients
// encode on the normal write path and route updates to the data block's OSD,
// where the configured update engine (FO/PL/PLR/PARIX/CoRD/TSUE) takes over.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"tsue/internal/device"
	"tsue/internal/netsim"
	"tsue/internal/obs"
	"tsue/internal/placement"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// Config describes a cluster.
type Config struct {
	OSDs         int
	K, M         int
	MatrixKind   rs.MatrixKind
	BlockSize    int64
	DeviceKind   device.Kind
	DeviceParams device.Params
	NetParams    netsim.Params
	Engine       string
	EngineOpts   update.Options
	// PGs is the placement-group count for the CRUSH-like stripe placement
	// (internal/placement). 0 defaults to 8 PGs per OSD.
	PGs int
	// HedgeDelay > 0 arms hedged degraded reads: when an on-the-fly
	// reconstruction has not completed within this deadline (a straggling
	// survivor), the surrogate fires a second reconstruction from an
	// alternate K-of-N survivor set and the first valid result wins. 0
	// disables hedging.
	HedgeDelay time.Duration
	// Admission, when non-nil, makes every foreground client op ask the
	// MDS for admission first (wire.AdmitOp). Rejected ops surface to the
	// submitter as the retryable ErrOverload and are counted
	// (AdmissionStats). nil disables admission entirely — no AdmitOp
	// round trip is sent.
	Admission AdmissionPolicy
	// TraceSample > 0 enables sim-time distributed tracing: every n-th
	// foreground op starts a trace whose spans cover admission, RPC wire
	// time, handler service, journal persistence and device charges.
	// Tracing never changes simulated behavior: span contexts are always
	// encoded on the wire (traced or not), timestamps come from the sim
	// clock, and ids from monotone counters, so traces are deterministic
	// per seed and a traced run times out identically to an untraced one.
	// 0 disables tracing.
	TraceSample int
}

// DefaultConfig mirrors the paper's SSD testbed: 16 OSD nodes, RS(6,4)
// available via K/M, 1 MiB blocks, 25 Gb/s network.
func DefaultConfig() Config {
	return Config{
		OSDs:         16,
		K:            6,
		M:            4,
		MatrixKind:   rs.Vandermonde,
		BlockSize:    1 << 20,
		DeviceKind:   device.SSD,
		DeviceParams: device.SSDParams(),
		NetParams:    netsim.Ethernet25G(),
		Engine:       "tsue",
		EngineOpts:   update.DefaultOptions(),
		PGs:          128,
	}
}

// Node ID layout: MDS = 0, OSDs = 1..OSDs, clients allocated above.
const mdsID wire.NodeID = 0

// Cluster owns all simulated nodes of one experiment.
type Cluster struct {
	Env    *sim.Env
	Fabric *netsim.Fabric
	Cfg    Config
	Code   *rs.Code
	MDS    *MDS
	OSDs   []*OSD
	// Obs is the cluster's observability plane: the tracer (enabled by
	// Config.TraceSample) the fabric and device layers stamp spans on.
	Obs *obs.Obs

	nextClient wire.NodeID
	// byID indexes OSDs by node ID (IDs are no longer dense once expansion
	// adds nodes above the client range).
	byID map[wire.NodeID]*OSD
	// remap overrides block placement after recovery moved a block (and
	// pins an abort-resolved PG's blocks to their old homes at commit).
	remap map[wire.BlockID]wire.NodeID
	// orphans parks replay records whose home died with no window open
	// (land, rule 2); registerDegraded seeds them into the surrogate
	// journals (see degraded.go).
	orphans map[wire.NodeID][]wire.ReplicaItem
	// cutMu serializes PG cutover fences across concurrent migrations.
	cutMu *sim.Resource
	// transHook, when set, observes every PG migration stage boundary
	// (SetTransHook; fault-injection and tests).
	transHook func(TransEvent)

	// degraded routes per failed node (see degraded.go), windowsOpened
	// counts the windows ever opened (degradedState.opened); gateClosed fences
	// client updates during recovery consistency windows (closed since
	// gateClosedAt; gated sums the earlier closures); updatesInFlight
	// counts normal-path updates past the gate and surrOpsInFlight counts
	// surrogate-side degraded updates past it (fenceUpdates waits for both
	// to land before a barrier runs, so no client update can straddle a
	// settle or a journal cutover).
	degraded        map[wire.NodeID]*degradedState
	windowsOpened   uint64
	gateClosed      bool
	gateClosedAt    time.Duration
	gated           time.Duration
	gateCond        *sim.Cond
	updatesInFlight int
	surrOpsInFlight int

	// corruptions counts checksum-verification failures surfaced anywhere
	// in the cluster (OSD ingress, shard fan-in, client read verification,
	// at-rest scrub). The chaos grid asserts this equals the fabric's
	// injected-corruption count: nothing corrupt escapes silently.
	corruptions int64

	// rebuildStreams numbers the rebuild streams (OSD.streamShards), so each
	// stream's RebuildReads name it.
	rebuildStreams uint64

	// MDS admission accounting (see admission.go): admitted/rejected op
	// counts and the admitted-but-uncompleted depth the queue-depth
	// backpressure check reads.
	admitted         int64
	rejected         int64
	admittedInFlight int

	// hedgeFired counts hedged degraded-read reconstructions launched after
	// the primary missed Config.HedgeDelay; hedgeWins those whose result
	// won the race.
	hedgeFired int64
	hedgeWins  int64
}

type fileMeta struct {
	ino     uint64
	name    string
	stripes uint32
}

// placementSeed fixes the placement map's hash epoch; determinism of the
// simulation requires it constant across runs.
const placementSeed = 0x75e5

// tieSalt is the sim tie salt every new cluster's environment starts with
// (sim.Env.SetTieSalt). It is 0, the kernel's scheduling order, except in
// this package's tests run with -tiesalt, which explore other same-instant
// orders of the same seeded runs.
var tieSalt uint64

// New builds a cluster in a fresh simulation environment.
func New(cfg Config) (*Cluster, error) {
	if cfg.OSDs < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 OSD, got %d", cfg.OSDs)
	}
	if cfg.OSDs < cfg.K+cfg.M {
		return nil, fmt.Errorf("cluster: %d OSDs cannot host RS(%d,%d) stripes", cfg.OSDs, cfg.K, cfg.M)
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("cluster: block size must be positive, got %d", cfg.BlockSize)
	}
	if cfg.PGs < 0 {
		return nil, fmt.Errorf("cluster: PG count must not be negative, got %d", cfg.PGs)
	}
	code, err := rs.New(cfg.K, cfg.M, cfg.MatrixKind)
	if err != nil {
		return nil, err
	}
	pgs := cfg.PGs
	if pgs == 0 {
		pgs = 8 * cfg.OSDs
	}
	ids := make([]wire.NodeID, cfg.OSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	pmap, err := placement.New(placement.Config{
		PGs: pgs, Width: cfg.K + cfg.M, OSDs: ids, Seed: placementSeed,
	})
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	env.SetTieSalt(tieSalt)
	c := &Cluster{
		Env:        env,
		Fabric:     netsim.New(env, cfg.NetParams),
		Cfg:        cfg,
		Code:       code,
		byID:       make(map[wire.NodeID]*OSD),
		remap:      make(map[wire.BlockID]wire.NodeID),
		orphans:    make(map[wire.NodeID][]wire.ReplicaItem),
		degraded:   make(map[wire.NodeID]*degradedState),
		gateCond:   sim.NewCond(env),
		nextClient: wire.NodeID(cfg.OSDs + 1),
	}
	c.cutMu = env.NewResource("cutover-mu", 1)
	// The observability plane precedes every node so constructors can
	// reach the tracer.
	c.Obs = obs.New(env, cfg.TraceSample)
	c.Fabric.SetTracer(c.Obs.Tracer)
	c.MDS = newMDS(c, pmap)
	c.Fabric.AddNode(mdsID, c.MDS.handle)
	for i := 0; i < cfg.OSDs; i++ {
		id := wire.NodeID(i + 1)
		osd := newOSD(c, id)
		c.OSDs = append(c.OSDs, osd)
		c.byID[id] = osd
		c.Fabric.AddNode(id, osd.handle)
	}
	// Engines spawn background recyclers, so they are created after the
	// fabric knows every node.
	for _, osd := range c.OSDs {
		eng, err := update.New(cfg.Engine, osd, cfg.EngineOpts)
		if err != nil {
			return nil, err
		}
		osd.engine = eng
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// osdIDs returns the OSD node IDs in ring order.
func (c *Cluster) osdIDs() []wire.NodeID {
	out := make([]wire.NodeID, len(c.OSDs))
	for i := range c.OSDs {
		out[i] = c.OSDs[i].id
	}
	return out
}

// OSDByID returns the OSD with the given node ID.
func (c *Cluster) OSDByID(id wire.NodeID) *OSD { return c.byID[id] }

// placeUnder resolves a stripe's hosts under the given epoch's map with
// recovery remaps overlaid (remaps are physical truth, valid in any view).
func (c *Cluster) placeUnder(s wire.StripeID, epoch uint64) []wire.NodeID {
	out, err := c.MDS.epochs.At(epoch).Place(s, nil)
	if err != nil {
		// Unreachable: New validates Width <= OSDs and a nil liveness view
		// cannot exhaust candidates.
		panic(fmt.Sprintf("cluster: placement of %v: %v", s, err))
	}
	for i := range out {
		blk := wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(i)}
		if over, ok := c.remap[blk]; ok {
			out[i] = over
		}
	}
	return out
}

// Placement returns the K+M OSD node IDs hosting a stripe, block i at
// element i, resolved through the MDS-owned placement map: (file, stripe)
// hashes to a placement group, the PG's straw-selected members host the
// blocks, and per-stripe role rotation spreads the parity indices across
// the group. During a rebalance transition the PG's authoritative epoch
// decides which map applies; recovery remaps take precedence either way.
func (c *Cluster) Placement(s wire.StripeID) []wire.NodeID {
	return c.placeUnder(s, c.MDS.authEpochOf(s))
}

// ResolveView resolves a stripe's placement as a client holding map view
// `view` would, returning the hosts and the epoch tag to carry on the
// request. Clients at the staged epoch resolve per PG through the cutover
// set (the MDS ships incremental PG flips with the map, as Ceph does with
// OSDMap incrementals); older clients resolve under their stale map and
// carry its epoch tag, which OSDs bounce with errStaleEpoch once the PG
// has moved on.
func (c *Cluster) ResolveView(s wire.StripeID, view uint64) ([]wire.NodeID, uint64) {
	m := c.MDS
	if newest := m.view(); view > newest {
		view = newest
	}
	ep := view
	if t := m.trans; t != nil && view >= t.next {
		ep = m.authEpochOf(s)
	} else if view > m.committed {
		ep = m.committed
	}
	return c.placeUnder(s, ep), ep
}

// epochOK reports whether a request tagged with the given epoch may touch
// the block: its routing view must match the block's PG's authoritative
// epoch exactly (older = routed by a retired map, newer = routed ahead of
// the PG's cutover).
func (c *Cluster) epochOK(blk wire.BlockID, epoch uint64) bool {
	return epoch == c.MDS.authEpochOf(blk.StripeID())
}

// migrationFenced reports whether the block's (staged-epoch) PG is inside
// a cutover fence right now — its stage is fenced or replaying, the window
// where its overlay logs are being extracted and replayed at the new
// homes, which reads must wait out.
func (c *Cluster) migrationFenced(blk wire.BlockID) bool {
	t := c.MDS.trans
	if t == nil {
		return false
	}
	s := t.stage[c.MDS.epochs.At(t.next).PGOf(blk.StripeID())]
	return s == StageFenced || s == StageReplaying
}

// PG returns the placement group a stripe hashes to under the committed
// map.
func (c *Cluster) PG(s wire.StripeID) int { return c.MDS.PlacementMap().PGOf(s) }

// AddOSDNode creates and wires a brand-new OSD — fabric node, device,
// block store, update engine — WITHOUT putting it on the
// placement map: staging the epoch that adopts it is the rebalance
// engine's job (Expand). The node ID is allocated above every existing
// node, so OSD IDs are no longer dense once a cluster has grown.
func (c *Cluster) AddOSDNode() (*OSD, error) {
	id := c.nextClient
	c.nextClient++
	osd := newOSD(c, id)
	eng, err := update.New(c.Cfg.Engine, osd, c.Cfg.EngineOpts)
	if err != nil {
		return nil, err
	}
	osd.engine = eng
	c.OSDs = append(c.OSDs, osd)
	c.byID[id] = osd
	c.Fabric.AddNode(id, osd.handle)
	return osd, nil
}

// StripeWidth returns bytes of file data per stripe.
func (c *Cluster) StripeWidth() int64 { return int64(c.Cfg.K) * c.Cfg.BlockSize }

// Locate maps a file offset to its data block and intra-block offset.
func (c *Cluster) Locate(ino uint64, off int64) (wire.BlockID, int64) {
	sw := c.StripeWidth()
	stripe := uint32(off / sw)
	rem := off % sw
	idx := uint16(rem / c.Cfg.BlockSize)
	return wire.BlockID{Ino: ino, Stripe: stripe, Index: idx}, rem % c.Cfg.BlockSize
}

// NewClient allocates a client node.
func (c *Cluster) NewClient() *Client {
	id := c.nextClient
	c.nextClient++
	c.Fabric.AddNode(id, nil)
	return &Client{c: c, id: id}
}

// DrainAll repeatedly drains every live OSD until a full round reports
// clean everywhere; recycling forwards work to peers, so one round is not
// enough (DataLog→DeltaLog→ParityLog spans up to three nodes).
func (c *Cluster) DrainAll(p *sim.Proc, via *Client) error {
	return c.barrier(p, via, "drain", &wire.Drain{}, update.All)
}

// barrier sends req to every live OSD in parallel, in rounds, until a round
// starts with nothing pending in scope sc on any of them; at most 12
// rounds. req makes each OSD merge sc. A node that dies mid-round is no
// longer the barrier's problem: its state is recovery's now.
func (c *Cluster) barrier(p *sim.Proc, via *Client, name string, req wire.Msg, sc update.Scope) error {
	var pending []wire.NodeID
	for round := 0; round < 12; round++ {
		var live []*OSD
		pending = pending[:0]
		for _, osd := range c.OSDs {
			if c.Fabric.Down(osd.id) {
				continue
			}
			live = append(live, osd)
			if osd.engine.Pending(sc) {
				pending = append(pending, osd.id)
			}
		}
		if err := sim.Parallel(p, name, len(live), func(hp *sim.Proc, i int) error {
			err := wire.AckErr(c.Fabric.Call(hp, via.id, live[i].id, req))
			if err != nil && !errors.Is(err, netsim.ErrNodeDown) {
				return fmt.Errorf("%s %d: %w", name, live[i].id, err)
			}
			return nil
		}); err != nil {
			return err
		}
		if len(pending) == 0 {
			return nil
		}
	}
	return fmt.Errorf("cluster: %s did not converge: scope %+v, at %v, OSDs %v still pending at the last round", name, sc, p.Now(), pending)
}

// Scrub verifies every stripe: parity must equal the re-encoded data. It
// inspects stores directly (no simulated cost) and should run after
// DrainAll. It returns the number of stripes checked.
func (c *Cluster) Scrub() (int, error) {
	checked := 0
	// Sweep inodes in sorted order so the partial count and first error
	// surfaced on a bad tree are deterministic.
	for _, ino := range c.MDS.sortedInos() {
		fm := c.MDS.files[ino]
		for s := uint32(0); s < fm.stripes; s++ {
			sid := wire.StripeID{Ino: ino, Stripe: s}
			osds := c.Placement(sid)
			data := make([][]byte, c.Cfg.K)
			parity := make([][]byte, c.Cfg.M)
			for i := 0; i < c.Cfg.K+c.Cfg.M; i++ {
				blk := wire.BlockID{Ino: ino, Stripe: s, Index: uint16(i)}
				host := c.OSDByID(osds[i])
				buf, ok := host.store.Peek(blk)
				if !ok {
					return checked, fmt.Errorf("scrub: %v missing on node %d", blk, osds[i])
				}
				if i < c.Cfg.K {
					data[i] = buf
				} else {
					parity[i-c.Cfg.K] = buf
				}
			}
			ok, err := c.Code.Verify(data, parity)
			if err != nil {
				return checked, err
			}
			if !ok {
				return checked, fmt.Errorf("scrub: stripe %v inconsistent", sid)
			}
			checked++
		}
	}
	return checked, nil
}

// noteCorruption records one detected checksum failure (any verify point).
func (c *Cluster) noteCorruption() { c.corruptions++ }

// readData is the outcome of a ReadBlock or DegradedRead call: the verified
// payload of its ReadResp, or the transport error, the carried Err, an
// unexpected response type or ErrChecksum (counted as a detection). The
// caller wraps the error with its own context.
func (c *Cluster) readData(resp wire.Msg, err error) ([]byte, error) {
	if err = wire.AckErr(resp, err); err != nil {
		return nil, err
	}
	rr, ok := resp.(*wire.ReadResp)
	if !ok {
		return nil, fmt.Errorf("unexpected response %T", resp)
	}
	if err := wire.Verify(rr); err != nil {
		c.noteCorruption()
		return nil, err
	}
	return rr.Data, nil
}

// CorruptionsDetected returns how many checksum-verification failures the
// cluster has surfaced — compared against Fabric.CorruptionsInjected to
// prove injected corruption never escapes detection.
func (c *Cluster) CorruptionsDetected() int64 { return c.corruptions }

// HedgeStats reads the hedged degraded-read counters: fired is how many
// hedge reconstructions launched (primary missed the HedgeDelay deadline),
// wins how many of those produced the winning result.
func (c *Cluster) HedgeStats() (fired, wins int64) {
	return c.hedgeFired, c.hedgeWins
}

// ScrubRepair is the repairing scrub run after a chaos window heals: it
// re-checks every stored shard against its at-rest checksum, treats
// checksum-failing (or missing) shards as erasures and reconstructs them
// from the surviving shards when no more than M are bad, then re-encodes
// any stripe whose parity disagrees with its data and rewrites the stale
// parity copies in place. Data shards are authoritative for the
// parity-tear repair: a message dropped inside an engine's propagation
// (flap window, partition) leaves data applied and parity stale, never the
// reverse. Like Scrub it inspects stores directly and requires every host
// live; it returns the repaired block and stripe counts.
func (c *Cluster) ScrubRepair(p *sim.Proc) (blocks, stripes int, err error) {
	cfg := c.Cfg
	// Repair in sorted inode order: the repair writes and the counts
	// returned on early error must not depend on map iteration order.
	for _, ino := range c.MDS.sortedInos() {
		fm := c.MDS.files[ino]
		for s := uint32(0); s < fm.stripes; s++ {
			sid := wire.StripeID{Ino: ino, Stripe: s}
			osds := c.Placement(sid)
			shards := make([][]byte, cfg.K+cfg.M)
			var bad []int
			for i := range shards {
				blk := wire.BlockID{Ino: ino, Stripe: s, Index: uint16(i)}
				host := c.OSDByID(osds[i])
				if c.Fabric.Down(osds[i]) {
					return blocks, stripes, fmt.Errorf("scrub-repair: host %d of %v down", osds[i], blk)
				}
				buf, ok := host.store.Peek(blk)
				if !ok || !host.store.VerifyStored(blk) {
					if ok {
						c.noteCorruption()
					}
					bad = append(bad, i)
					continue
				}
				shards[i] = append([]byte(nil), buf...)
			}
			repaired := false
			if len(bad) > 0 {
				if len(bad) > cfg.M {
					return blocks, stripes, fmt.Errorf("scrub-repair: stripe %v has %d bad shards > M=%d", sid, len(bad), cfg.M)
				}
				if err := c.Code.Reconstruct(shards); err != nil {
					return blocks, stripes, fmt.Errorf("scrub-repair: stripe %v: %w", sid, err)
				}
				for _, i := range bad {
					blk := wire.BlockID{Ino: ino, Stripe: s, Index: uint16(i)}
					if err := c.OSDByID(osds[i]).store.Rewrite(p, blk, shards[i]); err != nil {
						return blocks, stripes, err
					}
					blocks++
				}
				repaired = true
			}
			ok, verr := c.Code.Verify(shards[:cfg.K], shards[cfg.K:])
			if verr != nil {
				return blocks, stripes, verr
			}
			if !ok {
				parity := make([][]byte, cfg.M)
				for j := range parity {
					parity[j] = make([]byte, cfg.BlockSize)
				}
				if err := c.Code.Encode(shards[:cfg.K], parity); err != nil {
					return blocks, stripes, err
				}
				for j := 0; j < cfg.M; j++ {
					if bytes.Equal(parity[j], shards[cfg.K+j]) {
						continue
					}
					blk := wire.BlockID{Ino: ino, Stripe: s, Index: uint16(cfg.K + j)}
					if err := c.OSDByID(osds[cfg.K+j]).store.Rewrite(p, blk, parity[j]); err != nil {
						return blocks, stripes, err
					}
					blocks++
				}
				repaired = true
			}
			if repaired {
				stripes++
			}
		}
	}
	return blocks, stripes, nil
}

// resetRecoverySources zeroes the per-OSD reconstruction-source counters
// (run at the start of every Recover so the report covers one window).
func (c *Cluster) resetRecoverySources() {
	for _, osd := range c.OSDs {
		osd.recSrcReadBytes = 0
	}
}

// recoverySources snapshots the per-OSD reconstruction-source bytes
// (nonzero entries only).
func (c *Cluster) recoverySources() map[wire.NodeID]int64 {
	out := make(map[wire.NodeID]int64)
	for _, osd := range c.OSDs {
		if osd.recSrcReadBytes > 0 {
			out[osd.id] = osd.recSrcReadBytes
		}
	}
	return out
}

// JournalQuorumStats aggregates the degraded-journal quorum replication
// traffic across the cluster: sentMsgs/sentBytes are acked JournalReplica
// sends by surrogates, heldMsgs/heldBytes the records persisted by quorum
// holders (they differ only when a window is cut mid-ack). Harness
// quorum-traffic counters.
func (c *Cluster) JournalQuorumStats() (sentMsgs, sentBytes, heldMsgs, heldBytes int64) {
	for _, osd := range c.OSDs {
		sentMsgs += osd.jrSentMsgs
		sentBytes += osd.jrSentBytes
		heldMsgs += osd.jrHeldMsgs
		heldBytes += osd.jrHeldBytes
	}
	return
}

// SurrogatesOf returns the distinct surrogate OSDs serving a failed node's
// degraded window, in deterministic order (tests, harness kill targeting).
func (c *Cluster) SurrogatesOf(failed wire.NodeID) []wire.NodeID {
	st := c.degraded[failed]
	if st == nil {
		return nil
	}
	return append([]wire.NodeID(nil), st.surrogates...)
}

// JournalHoldersOf returns the fixed quorum holder set of one surrogate in
// a failed node's degraded window (tests, harness kill targeting).
func (c *Cluster) JournalHoldersOf(failed, surrogate wire.NodeID) []wire.NodeID {
	st := c.degraded[failed]
	if st == nil || st.quorum[surrogate] == nil {
		return nil
	}
	return append([]wire.NodeID(nil), st.quorum[surrogate].holders...)
}

// BeginDegraded opens a degraded window for a node without rebuilding it:
// the node dies through the death handler (die: it comes off the fabric,
// and the journals of the windows it served are promoted), degraded routes
// publish under a brief fence, and the settle barrier restores raw stripe
// consistency while foreground I/O already flows degraded (updates journal
// on the surrogates) — the window interleaved recovery opens (openWindow,
// settleWindow) — until a later Recover(failed) rebuilds and cuts over;
// the settle here ends before BeginDegraded returns. Recover detects the
// pre-opened window and skips re-registration. Multi-death tests and
// harness scenarios use this to inject surrogate/holder deaths at
// controlled points between the failure and its recovery.
func (c *Cluster) BeginDegraded(p *sim.Proc, failed wire.NodeID, via *Client) error {
	if t := c.MDS.trans; t != nil {
		return fmt.Errorf("cluster: cannot open degraded window for node %d while epoch %d is staged: %w",
			failed, t.next, ErrTransitionInProgress)
	}
	if c.degraded[failed] != nil {
		return fmt.Errorf("cluster: node %d already degraded", failed)
	}
	if err := c.die(p, failed, via, nil); err != nil {
		return err
	}
	rep := &RecoveryReport{}
	st, err := c.openWindow(p, failed, via, rep, true)
	if err == nil {
		err = c.settleWindow(p, st, via, rep)
	}
	c.openGate()
	return err
}

// JournalBytesPerOSD returns surrogate-journal bytes appended per OSD
// (nonzero entries only) — the surrogate load spread the placement
// experiment reports.
func (c *Cluster) JournalBytesPerOSD() map[wire.NodeID]int64 {
	out := make(map[wire.NodeID]int64)
	for _, osd := range c.OSDs {
		if n := osd.JournalBytes(); n > 0 {
			out[osd.id] = n
		}
	}
	return out
}

// DeviceStats aggregates all OSD device counters.
func (c *Cluster) DeviceStats() device.Stats {
	var total device.Stats
	for _, osd := range c.OSDs {
		total.Add(osd.dev.Stats())
	}
	return total
}

// ResetStats zeroes device and network counters (e.g. after preload).
func (c *Cluster) ResetStats() {
	for _, osd := range c.OSDs {
		osd.dev.ResetStats()
	}
	c.Fabric.ResetStats()
}

// MemBytes sums engine log memory across OSDs.
func (c *Cluster) MemBytes() int64 {
	var n int64
	for _, osd := range c.OSDs {
		n += osd.engine.MemBytes()
	}
	return n
}

// PeakMemBytes sums engine peak log memory across OSDs.
func (c *Cluster) PeakMemBytes() int64 {
	var n int64
	for _, osd := range c.OSDs {
		n += osd.engine.PeakMemBytes()
	}
	return n
}

// Residency merges per-layer residency stats across OSDs (TSUE only).
func (c *Cluster) Residency() map[string]update.LayerStats {
	out := make(map[string]update.LayerStats)
	for _, osd := range c.OSDs {
		rr, ok := osd.engine.(update.ResidencyReporter)
		if !ok {
			return nil
		}
		for layer, st := range rr.Residency() {
			cur := out[layer]
			cur.AppendN += st.AppendN
			cur.AppendTime += st.AppendTime
			cur.BufferN += st.BufferN
			cur.BufferTime += st.BufferTime
			cur.RecycleN += st.RecycleN
			cur.RecycleTime += st.RecycleTime
			cur.Units += st.Units
			out[layer] = cur
		}
	}
	return out
}
