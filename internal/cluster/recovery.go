package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// RecoverMode selects how recovery interacts with logs and foreground I/O
// (the paper's §2.3.2/§4.2 recovery discussion and the Fig. 8b comparison).
type RecoverMode int

const (
	// RecoverDrainFirst terminates client updates (gate), merges every log
	// cluster-wide, then reconstructs — the paper's baseline protocol, where
	// lazy-log schemes pay their whole deferred merge debt before a single
	// block is rebuilt.
	RecoverDrainFirst RecoverMode = iota
	// RecoverLogReplay terminates client updates (gate) but merges only the
	// minimum log state — the settle barrier for the failed node's stripes,
	// which for lazy-log schemes merges every parity record of those
	// stripes while TSUE keeps its replayable DataLog elsewhere — then
	// reconstructs and replays the failed node's replicated unrecycled
	// DataLog through the home engines' Update (§4.2 log reliability).
	RecoverLogReplay
	// RecoverInterleaved keeps foreground I/O flowing while the node
	// rebuilds: a brief gate publishes the degraded routes, then a settle
	// barrier scoped to the failed node's stripes restores their raw stripe
	// consistency with updates flowing (only a degraded read of a lost
	// block's range it has yet to merge waits) while reconstruction
	// proceeds `parallel` stripes at a time beside it, each stripe once it
	// has settled. Degraded-stripe I/O routes through the surrogate (reads
	// reconstruct on the fly, updates journal) and non-degraded I/O runs the
	// normal path — contending with recovery traffic on the same simulated
	// NICs. A second gate holds updates through the journal cutover, in
	// which every surrogate replays its own journal to the blocks' homes at
	// once; reads pass it.
	RecoverInterleaved
)

// String returns the mode's experiment-facing name.
func (m RecoverMode) String() string {
	switch m {
	case RecoverDrainFirst:
		return "drain-first"
	case RecoverLogReplay:
		return "log-replay"
	case RecoverInterleaved:
		return "interleaved"
	}
	return fmt.Sprintf("RecoverMode(%d)", int(m))
}

// RecoveryReport summarizes one recovery run.
type RecoveryReport struct {
	// Blocks and Bytes count the reconstructed blocks.
	Blocks int
	Bytes  int64
	// DrainTime is the time spent in the log barrier: a full drain for
	// drain-first, the settle barrier for log-replay and interleaved. It is
	// the sum of the next three phases: Fence1Wait waits out the client ops
	// already past the gate, RegisterTime publishes the degraded routes and
	// seeds the journals (registerDegraded), and SettleTime runs SettleAll
	// (drain-first: DrainAll). Drain-first and log-replay keep client
	// updates gated through all of it and rebuild after it. Interleaved
	// recovery reopens the gate after RegisterTime and rebuilds beside the
	// settle, so its SettleTime overlaps RebuildTime; it is how long
	// degraded reads of lost blocks, and rebuilds, could be fenced: one
	// whose byte range (a rebuild: whose stripe) the settle has yet to merge
	// waits until it has. A pre-opened degraded window already did the last
	// two; log-replay then only fences, and interleaved recovery skips
	// fence 1 altogether.
	DrainTime    time.Duration
	Fence1Wait   time.Duration
	RegisterTime time.Duration
	SettleTime   time.Duration
	// RebuildTime covers the parallel block reconstruction phase, from
	// target selection to the last block's ack. Interleaved recovery
	// without a pre-opened window starts it when the registration ends,
	// together with the settle, so it includes each block's wait for its
	// stripe to settle, and TotalTime is Fence1Wait + RegisterTime +
	// max(SettleTime, RebuildTime) + Fence2Wait + ReplayTime.
	RebuildTime time.Duration
	// ReplayTime covers the journal cutover (replica + degraded-update
	// replay through the engines). Interleaved recovery's second gate
	// first waits Fence2Wait for in-flight ops; log-replay's cutover runs
	// under the first gate and waits for nothing.
	ReplayTime time.Duration
	Fence2Wait time.Duration
	// JournalReplayTime is the cutover's critical path: the request time of
	// the surrogate whose journal replay finished last. Each surrogate
	// replays its own journal from the journal's memory index, so no journal
	// byte crosses the admin client's NIC and nothing is read off the
	// surrogate's device.
	JournalReplayTime time.Duration
	// GatedTime is how long the update gate was closed during the run, as
	// the gate's own clock measured it — the foreground outage the degraded
	// experiment measures. Drain-first and log-replay hold the gate from
	// fence 1 to the end, so it equals TotalTime; interleaved recovery holds
	// it for Fence1Wait + RegisterTime and then for the second fence
	// (Fence2Wait + ReplayTime); the settle and the rebuild run ungated.
	GatedTime time.Duration
	// ReplayedRecords counts the journal records the cutover replayed (the
	// failed node's DataLog replicas plus the degraded updates journaled
	// during recovery); each journal's index merged them per block, and
	// ReplayedItems / ReplayedBytes count the extents and bytes replayed
	// through the engines.
	ReplayedRecords int
	ReplayedItems   int
	ReplayedBytes   int64
	// MaxJournalRecords is the record count of the largest surrogate
	// journal, and MaxJournalExtents what its index merged them into.
	MaxJournalRecords int
	MaxJournalExtents int
	// TotalTime is failure-to-healthy wall (virtual) time; BandwidthBps is
	// reconstruction volume over it.
	TotalTime    time.Duration
	BandwidthBps float64
	// TargetBlocks counts rebuilt blocks per destination OSD, acked
	// rebuilds only: a block whose target died is counted once, on the
	// target that acked it. With PG placement the targets are the per-PG
	// stable replacements, so the write side of recovery spreads across the
	// cluster.
	TargetBlocks map[wire.NodeID]int
	// SourceReadBytes counts reconstruction bytes read per source OSD
	// during the recovery window (rebuild fan-in plus degraded on-the-fly
	// reconstruction) — the recovery fan-out the placement experiment
	// reports. It includes the bytes of rebuild attempts a death cut short.
	SourceReadBytes map[wire.NodeID]int64
}

// Recover handles the failure of one OSD under the given mode. All modes
// end with every lost block rebuilt on its PG's stable replacement OSD,
// placement remapped, and — for modes that replay — the failed node's
// unrecycled updates and any degraded-mode journal merged back through the
// engines, so a subsequent drain + scrub is byte-exact.
//
// The three protocols run one sequence of steps; the mode only chooses
// which steps run:
//
//  1. the node dies through the death handler (die), which promotes the
//     journals of the windows it served (drain-first: after its drain);
//  2. fence 1 and the barrier: drain-first fences, drains every log and
//     then takes the node off the fabric; a replaying mode with no open
//     window opens one (openWindow) and settles it (settleWindow), and
//     interleaved reopens the gate before its settle; log-replay on a
//     pre-opened window only fences, and interleaved on one skips the step;
//  3. the rebuild, re-encoding torn stripes unless the cluster was drained
//     (the stripes whose first parity's node buffered the others' deltas
//     are the window settle's to re-encode: reencode).
//     Each block's target streams its K sources' shards in slices, each
//     source reading its shard off its device once (OSD.streamShards),
//     and a stripe repair writes its block and the live parities at once.
//     Interleaved recovery that opened its window in step 2 runs it beside
//     step 2's settle, from the registration's end, and each block waits
//     for its own stripe to settle; the other modes run it after step 2;
//  4. fence 2, in interleaved only (log-replay is still fenced);
//  5. the journal cutover, a no-op without a degraded window;
//  6. log-replay charges the replayed updates' merge debt to recovery with
//     a full drain, per the paper's accounting.
//
// A further death during Recover is decided where it lands, by the rule
// land states for a replayed record: a node-down answer while the caller
// lives takes the step's decision again. The rebuild picks each block's
// target when it sends and re-picks it, with live sources, after a
// node-down (rebuild); a re-encode moves to the next live parity
// (reencode); the cutover waits for a dead surrogate's promotion (cutover);
// and the replay parks or re-routes the records of a dead home (land). A
// death past a budget fails by name: a stripe with more than M dead
// members fails its rebuild with ErrStripeLost, a journal whose holders all
// died fails its promotion with ErrSurrogateLost, and a death that takes
// log state only it and the failed node kept fails with ErrLogLost: the
// window's settle when it died before the settle re-protected that state
// (die, exposes), or its promotion when it was a surrogate whose seeds no
// live replica holder still has (promoteSurrogate).
//
// The gate is open when Recover returns, on error too.
func (c *Cluster) Recover(p *sim.Proc, failed wire.NodeID, parallel int, mode RecoverMode, via *Client) (*RecoveryReport, error) {
	if t := c.MDS.trans; t != nil {
		// Failure handling and an in-flight rebalance are mutually exclusive
		// control-plane operations (Expand refuses symmetrically): recovery
		// targets, surrogate selection and the settle barrier all assume one
		// authoritative map. Kill resolves the transition (per-PG abort or
		// finish) first; Recover then runs under the settled epoch.
		return nil, fmt.Errorf("cluster: cannot recover node %d while epoch %d is staged: %w",
			failed, t.next, ErrTransitionInProgress)
	}
	if mode < RecoverDrainFirst || mode > RecoverInterleaved {
		return nil, fmt.Errorf("cluster: unknown recover mode %d", mode)
	}
	if err := c.checkOSD(failed); err != nil {
		return nil, err
	}
	if parallel < 1 {
		parallel = 1
	}
	// pre: the degraded window was already opened (BeginDegraded) — routes
	// are published and the settle barrier ran, so the replaying modes skip
	// straight to the rebuild.
	pre := c.degraded[failed] != nil
	drain := mode == RecoverDrainFirst
	if pre && drain {
		return nil, fmt.Errorf("cluster: node %d has an open degraded window; drain-first recovery would drop its journal", failed)
	}
	rep := &RecoveryReport{TargetBlocks: make(map[wire.NodeID]int)}
	start, gated := p.Now(), c.gatedTime()
	c.resetRecoverySources()

	// The degraded routes are published only under the closed gate
	// (openWindow), which holds updates back while the journals are seeded;
	// a degraded read passes it, and one of a lost block is fenced by the
	// settle from the instant the routes publish. Log-replay registers
	// before its settle, still gated, so client updates to the dead node's
	// stripes block at the gate instead of burning their bounded node-down
	// retry budget for the whole barrier.
	if !drain {
		if err := c.die(p, failed, via, nil); err != nil {
			return nil, err
		}
	}
	var (
		err        error
		lost       []wire.BlockID
		overlapped bool // the rebuild ran beside the settle
	)
	switch {
	case drain:
		rep.Fence1Wait = c.fenceUpdates(p)
		settle := p.Now()
		if err = c.DrainAll(p, via); err == nil {
			err = c.die(p, failed, via, nil)
		}
		rep.SettleTime = p.Now() - settle
	case !pre && mode == RecoverInterleaved:
		// The settle and the rebuild start together as the registration
		// ends; each block's reconstruction waits for its own stripe to
		// settle (rebuild), not for the whole barrier.
		var st *degradedState
		if st, err = c.openWindow(p, failed, via, rep, true); err == nil {
			overlapped = true
			err = sim.Parallel(p, "recover-phase", 2, func(hp *sim.Proc, i int) (err error) {
				if i == 0 {
					return c.settleWindow(hp, st, via, rep)
				}
				lost, err = c.rebuild(hp, failed, parallel, via, rep)
				return err
			})
		}
	case !pre:
		var st *degradedState
		if st, err = c.openWindow(p, failed, via, rep, false); err == nil {
			err = c.settleWindow(p, st, via, rep)
		}
	case mode == RecoverLogReplay:
		rep.Fence1Wait = c.fenceUpdates(p)
	}
	rep.DrainTime = rep.Fence1Wait + rep.RegisterTime + rep.SettleTime
	if err == nil && !overlapped {
		lost, err = c.rebuild(p, failed, parallel, via, rep)
	}
	if err == nil {
		c.resetStripeState(lost)
		if mode == RecoverInterleaved {
			// Wait out in-flight degraded updates: their records must be
			// committed before the cutover replays the journals.
			rep.Fence2Wait = c.fenceUpdates(p)
		}
		if err = c.cutover(p, failed, via, rep); err == nil && mode == RecoverLogReplay {
			err = c.DrainAll(p, via)
		}
	}
	c.openGate()
	rep.GatedTime = c.gatedTime() - gated
	if err != nil {
		// A failed promotion of the window's journals is the cause to
		// report: a journal it could not re-home fails the cutover.
		if st := c.degraded[failed]; st != nil && st.promoteErr != nil {
			err = st.promoteErr
		}
		return nil, err
	}
	rep.SourceReadBytes = c.recoverySources()
	rep.TotalTime = p.Now() - start
	if rep.TotalTime > 0 {
		rep.BandwidthBps = float64(rep.Bytes) / rep.TotalTime.Seconds()
	}
	return rep, nil
}

// openWindow opens a degraded window for a node already off the fabric. It
// closes the gate, waits out the client updates already past it and
// publishes the degraded routes (registerDegraded), timing both phases into
// rep, and returns the window, which is settling: the caller runs its
// settle barrier (settleWindow). With open set it reopens the gate at once,
// so the barrier runs while updates flow; otherwise the gate stays closed
// for the caller (log-replay keeps it through the settle, the rebuild and
// the cutover). On a registration error the gate is left as it is.
func (c *Cluster) openWindow(p *sim.Proc, failed wire.NodeID, via *Client, rep *RecoveryReport, open bool) (*degradedState, error) {
	rep.Fence1Wait = c.fenceUpdates(p)
	start := p.Now()
	st, err := c.registerDegraded(p, failed, via)
	rep.RegisterTime = p.Now() - start
	if err == nil && open {
		c.openGate()
	}
	return st, err
}

// settleWindow runs the settle barrier for a window's stripes, ends the
// window's settling when the barrier ends, and keeps a failed barrier in
// the window for a rebuild still waiting on it. Beside the barrier, each
// stripe the failed node's buffered deltas tore is re-encoded once it has
// settled (reencode). SettleTime covers both. The settle re-protects what
// the failed node held for others: a TSUE node whose DataLog replicas it
// held merges its whole DataLog (update.Failed), and the re-encodes mend
// the parities its buffer held deltas for. Until then a death that takes
// the only other copy of that state (a re-encoding stripe's data shard, or
// a node's own state the barrier has yet to merge) fails the settle with
// ErrLogLost (exposes). The settle may run with the
// gate open because from the registration on no update reaches a degraded
// stripe's engines: the client routes it to the surrogate, which journals
// it. So the barrier only has to hold back what reads a degraded stripe's
// raw shards, each until its own stripe has settled: a degraded read of a
// lost block, which reconstructs its range from them, waits while any live
// engine still holds state for that range (readFenced), and so does a
// block's rebuild for its whole stripe (waitSettled). Degraded reads of
// surviving blocks and all normal reads go ahead.
func (c *Cluster) settleWindow(p *sim.Proc, st *degradedState, via *Client, rep *RecoveryReport) error {
	start := p.Now()
	// Listed before the barrier yields: a rebuild beside it remaps a block
	// once it is acked, and lostBlocks would then miss the stripe.
	collected := c.collectedOn(st.failed)
	st.torn = slices.Clone(collected)
	err := sim.Parallel(p, "settle", 1+len(collected), func(hp *sim.Proc, i int) error {
		if i == 0 {
			st.settleErr = cmp.Or(st.settleErr, c.SettleAll(hp, via, st.failed))
			st.settling = false
			return st.settleErr
		}
		defer func() { st.torn = slices.DeleteFunc(st.torn, func(b wire.BlockID) bool { return b == collected[i-1] }) }()
		if c.waitSettled(hp, st, collected[i-1].StripeID()) != nil {
			return nil // the barrier reports its own error
		}
		return c.reencode(hp, collected[i-1], via)
	})
	rep.SettleTime = p.Now() - start
	return err
}

// collectedOn returns the stripes whose first parity placement puts on
// failed, under an engine that buffers the other parities' deltas there
// (collects), as their first parity blocks; nil for any other engine.
func (c *Cluster) collectedOn(failed wire.NodeID) []wire.BlockID {
	if !c.collects() {
		return nil
	}
	var blks []wire.BlockID
	for _, blk := range c.lostBlocks(failed) {
		if int(blk.Index) == c.Cfg.K {
			blks = append(blks, blk)
		}
	}
	return blks
}

// reencode re-protects a settled stripe that collectedOn listed for a
// window's failed node, given as its first parity block: the deltas
// buffered there for the other parities died with the node, so the live
// parities miss them, and a second death in the stripe would reconstruct
// from a torn parity. The stripe's live parities are re-encoded from its K
// data shards: the first live parity's holder runs recoverStripeRepair's
// encode for its own block (a RecoverBlock with Reencode) and writes the
// other live parities, in the background class, so foreground reads and
// updates go first at every NIC and disk. The failed node's block is
// rebuilt plainly, from the data shards. A stripe with a dead data member
// is left as it is, checked before each attempt: if that member died
// first, its window settled the stripe while the buffer's node lived, and
// if it died since, also during a failed attempt, the torn parity cannot
// be mended from K shards. A node-down answer otherwise means the parity's
// holder died, and the next live parity takes the re-encode over.
func (c *Cluster) reencode(p *sim.Proc, first wire.BlockID, via *Client) error {
	s := first.StripeID()
	p.SetClass(sim.Background)
	var err error
	for attempt := 0; ; attempt++ {
		osds := c.Placement(s)
		j := c.Cfg.K + 1 + slices.IndexFunc(osds[c.Cfg.K+1:], func(id wire.NodeID) bool { return !c.Fabric.Down(id) })
		if j == c.Cfg.K || slices.ContainsFunc(osds[:c.Cfg.K], c.Fabric.Down) {
			return nil
		}
		if err != nil && (!errors.Is(err, netsim.ErrNodeDown) || attempt >= routeRetries) {
			return fmt.Errorf("re-encode %v: %w", s, err)
		}
		req := &wire.RecoverBlock{Blk: wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(j)}, Reencode: true}
		if err = wire.AckErr(c.Fabric.Call(p, via.id, osds[j], req)); err == nil {
			return nil
		}
	}
}

// rebuild reconstructs every block placement puts on the failed node
// (lostBlocks) onto surviving OSDs, `parallel` blocks at a time, and returns
// the lost block list. Each block's proc decides its target when it sends:
// the PG's stable replacement for the failed slot under the current down set
// (placement.Replacement), so a single death moves only the dead node's PGs
// and the rebuild writes spread exactly as the CRUSH-like map dictates,
// excluding any OSD already hosting another block of the stripe, so a stripe
// never doubles up. A node-down answer means the target or one of the
// sources its stream read died: the block takes the decision again, as
// land's rule 3 retakes a record's, with a target picked under the new down
// set and a stream that takes the stripe's live members as sources
// (streamShards). A stripe past the code's budget ends in ErrStripeLost. A
// block whose failed node has a degraded window waits, once it holds its
// slot, until its stripe has settled (waitSettled): with interleaved
// recovery the window's settle barrier runs beside the rebuild. Placement is
// remapped for a block when its rebuild is acked, and only then does the
// target count in TargetBlocks: remapped earlier, the block's stripe would
// leave the settle barrier's scope, which placement decides, before its
// shards were consistent, and from the remap on its degraded reads forward
// to the new home (readDegraded). A block rebuilt onto a node that dies
// later is that node's lost block from then on. Under a window, blocks whose
// plain reconstruction could bake a torn stripe in (stripeRepair) get the
// full parity re-encode instead; drain-first recovery has no window, and a
// fully drained, gated cluster cannot hold a torn stripe.
func (c *Cluster) rebuild(p *sim.Proc, failed wire.NodeID, parallel int, via *Client, rep *RecoveryReport) ([]wire.BlockID, error) {
	lost := c.lostBlocks(failed)
	if rep.TargetBlocks == nil {
		rep.TargetBlocks = make(map[wire.NodeID]int)
	}
	rebuildStart := p.Now()
	st := c.degraded[failed]
	sem := c.Env.NewResource("recover-sem", parallel)
	if err := sim.Parallel(p, "recover", len(lost), func(hp *sim.Proc, i int) error {
		sem.Acquire(hp)
		defer sem.Release()
		blk := lost[i]
		if st != nil {
			if err := c.waitSettled(hp, st, blk.StripeID()); err != nil {
				return fmt.Errorf("recover %v: %w", blk, err)
			}
		}
		req := &wire.RecoverBlock{Blk: blk, Reencode: st != nil && c.stripeRepair(blk)}
		for attempt := 0; ; attempt++ {
			cur := c.Placement(blk.StripeID())
			target, err := c.MDS.PlacementMap().Replacement(blk.StripeID(), int(blk.Index), c.Fabric.Down,
				func(id wire.NodeID) bool { j := slices.Index(cur, id); return j >= 0 && j != int(blk.Index) })
			if err != nil {
				return fmt.Errorf("cluster: no recovery target for %v: %w", blk, err)
			}
			err = wire.AckErr(c.Fabric.Call(hp, via.id, target, req))
			if err == nil {
				c.remap[blk] = target
				rep.TargetBlocks[target]++
				return nil
			}
			if !errors.Is(err, netsim.ErrNodeDown) || attempt >= routeRetries {
				return fmt.Errorf("recover %v: %w", blk, err)
			}
		}
	}); err != nil {
		return nil, err
	}
	rep.Blocks = len(lost)
	rep.Bytes = int64(len(lost)) * c.Cfg.BlockSize
	rep.RebuildTime = p.Now() - rebuildStart
	return lost, nil
}

// stripeRepair reports whether rebuilding the lost block must re-encode the
// stripe's whole parity set (recoverStripeRepair) instead of a plain
// reconstruction: with M >= 2, when the dead node hosted a data block under
// a scheme whose data holder propagates parity deltas itself (FO
// sequentially, PL/PLR/PARIX by fan-out, TSUE without a DeltaLog at recycle
// time), since dying mid-propagation leaves live parities disagreeing about
// the final update. The other tear class, a dead first parity node whose
// buffer held the other parities' deltas (collects), is a window's settle's
// to re-encode (reencode), so the rebuild reconstructs that block plainly;
// only a caller with no window, rebalance's dead source, adds it itself.
func (c *Cluster) stripeRepair(blk wire.BlockID) bool {
	return c.Cfg.M >= 2 && !c.collects() && int(blk.Index) < c.Cfg.K
}

// collects reports whether the engine buffers a stripe's cross-parity
// deltas on the stripe's first parity node: CoRD's collector and TSUE's
// DeltaLog, with M >= 2 so that there are other parities. Only the copy
// there is stored; TSUE's reliability copy of a data delta is a device
// charge on the second parity node.
func (c *Cluster) collects() bool {
	return c.Cfg.M >= 2 && (c.Cfg.Engine == "cord" || c.Cfg.Engine == "tsue" && !c.Cfg.EngineOpts.NoDeltaLog)
}

// cutover replays the surrogate journals — the failed node's replicated
// unrecycled DataLog items followed by every update journaled while the
// node was degraded — through the engines' Update at the (remapped) home
// OSDs, then atomically retires the degraded route and drops the journal
// indexes (unregisterDegraded). It runs in rounds. Each round sends every
// live surrogate with unreplayed records one JournalReplay, and the
// surrogate replays its own journal (handleJournalReplay): each journal is
// indexed per block like the DataLog, so every block's merged extents go
// out once, straight from the index to the block's home, and a lost block
// rebuilt on its own surrogate (the usual case: the surrogate is its PG's
// replacement) replays over loopback. The admin client sends and receives
// only the requests and their counts. The surrogate keeps its index until
// the route retires, so degraded reads keep overlaying it through the
// replay and need no fence. With per-PG surrogates there is one journal per
// surrogate OSD, and every surrogate replays at once. That is safe because
// a block's records all live on its PG's surrogate (a promotion moves a
// dead surrogate's PGs, with their records, to one new surrogate), so no
// two journals share a block. It must run under the closed gate (after a
// fence, so no degraded update is mid-flight) so the journals cannot grow
// behind the replay. Should one grow anyway, the next round replays that
// whole journal again, which leaves the same bytes: its extents are
// overwrites.
//
// A surrogate that dies takes land's node-down rule: its node-down answer
// ends the round as incomplete, not failed, and its journal counts as
// unreplayed again. While a dead surrogate that still holds unreplayed
// records is listed, the next round waits for the death's promotion
// (promoteSurrogate), which moves its PGs and their records to a live
// surrogate; a failed promotion fails the cutover with its error. A dead
// surrogate with nothing left to replay is not waited for.
func (c *Cluster) cutover(p *sim.Proc, failed wire.NodeID, via *Client, rep *RecoveryReport) error {
	st := c.degraded[failed]
	if st == nil {
		return nil
	}
	replayStart := p.Now()
	for {
		// Atomic with the retirement below: with the gate closed nothing
		// can append, so journals found fully replayed stay so until we
		// unregister.
		var busy []wire.NodeID
		var records []int
		promoting := false // a dead surrogate holds unreplayed records
		for _, sur := range st.surrogates {
			if n := c.OSDByID(sur).journalRecords(failed); n > 0 {
				if c.Fabric.Down(sur) {
					promoting = true
					continue
				}
				busy = append(busy, sur)
				records = append(records, n)
			}
		}
		if len(busy) == 0 {
			if !promoting {
				c.unregisterDegraded(failed)
				break
			}
			if st.promoteErr != nil {
				return st.promoteErr
			}
			p.Sleep(settlePoll)
			continue
		}
		roundStart := p.Now()
		replayed := make([]time.Duration, len(busy))
		extents := make([]int, len(busy))
		if err := sim.Parallel(p, "replay-journal", len(busy), func(sp *sim.Proc, j int) error {
			resp, err := c.Fabric.Call(sp, via.id, busy[j], &wire.JournalReplay{Failed: failed})
			if err = wire.AckErr(resp, err); err != nil {
				if errors.Is(err, netsim.ErrNodeDown) && c.Fabric.Down(busy[j]) {
					records[j] = 0 // incomplete: its promotion takes the records over
					return nil
				}
				return fmt.Errorf("journal replay @%d: %w", busy[j], err)
			}
			rr, ok := resp.(*wire.JournalReplayResp)
			if !ok {
				return fmt.Errorf("journal replay @%d: unexpected response %T", busy[j], resp)
			}
			replayed[j] = sp.Now()
			extents[j] = int(rr.Extents)
			rep.ReplayedItems += int(rr.Extents)
			rep.ReplayedBytes += rr.Bytes
			return nil
		}); err != nil {
			return err
		}
		last := 0
		for j := range busy {
			rep.ReplayedRecords += records[j]
			if records[j] > rep.MaxJournalRecords {
				rep.MaxJournalRecords, rep.MaxJournalExtents = records[j], extents[j]
			}
			if replayed[j] > replayed[last] {
				last = j
			}
		}
		rep.JournalReplayTime += max(replayed[last]-roundStart, 0)
	}
	rep.ReplayTime = p.Now() - replayStart
	return nil
}

// fetchReplicaItems collects the failed node's replicated, unrecycled
// DataLog items from every surviving holder. The fetches go out at once, one
// proc per holder, and the answers are taken in c.OSDs order, not in the
// order they arrive, so the result is the one a holder-by-holder walk would
// give. With Copies <= 2 each item has exactly one replica, so holders'
// lists are disjoint and the union is the complete stream (it can split
// across holders when an earlier failure moved the ring successor); with
// Copies > 2 every holder has a full copy, so the largest list is returned,
// the first one in c.OSDs order on a tie, to avoid double-replaying
// duplicates.
func (c *Cluster) fetchReplicaItems(p *sim.Proc, failed wire.NodeID, via *Client) ([]wire.ReplicaItem, error) {
	var holders []wire.NodeID
	for _, osd := range c.OSDs {
		if osd.id != failed && !c.Fabric.Down(osd.id) {
			holders = append(holders, osd.id)
		}
	}
	lists := make([][]wire.ReplicaItem, len(holders))
	if err := sim.Parallel(p, "replica-fetch", len(holders), func(hp *sim.Proc, i int) error {
		resp, err := c.Fabric.Call(hp, via.id, holders[i], &wire.ReplicaFetch{Node: failed})
		if err != nil {
			return err
		}
		// Engines without replica support answer with an "unhandled" Ack.
		if rr, ok := resp.(*wire.ReplicaResp); ok {
			lists[i] = rr.Items
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var all, best []wire.ReplicaItem
	for _, items := range lists {
		all = append(all, items...)
		if len(items) > len(best) {
			best = items
		}
	}
	if c.Cfg.EngineOpts.Copies > 2 {
		return best, nil
	}
	return all, nil
}
