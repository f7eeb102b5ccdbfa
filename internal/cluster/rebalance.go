package cluster

// Online rebalance: the cluster-side mechanics under internal/rebalance's
// scheduler. A placement transition migrates each affected PG in three
// phases:
//
//  1. Bulk copy, foreground flowing: the new home pulls each moving
//     block's raw bytes (wire.MigrateBlock), paced by the shared throttle.
//     The source's per-block write version is recorded first, so anything
//     dirtied afterwards is caught below.
//  2. Fenced cutover (serialized cluster-wide): close the update gate,
//     settle engines (in-place schemes drain their whole log debt — the
//     paper's recovery-consistency argument applied to migration; TSUE
//     keeps its replayable active DataLog), re-copy blocks whose raw
//     content changed since phase 1, then extract the pure-overlay log
//     records of the moving blocks from their old homes
//     (wire.MigrateLog).
//  3. Flip the PG at the MDS (wire.PGCutover), retire the moving blocks'
//     stale recovery remaps, and replay the extracted records at the new
//     homes through the engines' Update (Cluster.land, the one replay path
//     recovery's journal cutover takes too) — the log follows the block. A
//     record whose new home died is parked for it. Old copies and
//     per-stripe engine baselines are retired, the fence opens, and
//     stale-epoch clients bounce once to re-resolve.
//
// Each migrating PG walks an explicit state machine the MDS owns
// (staged → copying → fenced → replaying → committed), and an OSD death
// mid-transition (Cluster.Kill / MarkDead) is a first-class event. The
// mover reads deaths from the fabric, the one liveness view, and resolves
// every in-flight PG to ABORT (roll back to the prior epoch — retire
// partial copies, re-open foreground I/O against the old homes) or FINISH
// (complete the remaining copies from surviving stripe peers by
// reconstruction, then cut over), per the policy in MigratePG. Overlay
// extraction is the point of no return: nothing leaves an old home before
// the PG's last abort check. After resolution the staged epoch still
// commits — aborted PGs' moves become physical remaps, exactly like
// recovery's placement overrides — and Recover then proceeds normally
// under the settled epoch.
//
// Recovery and an ongoing rebalance remain mutually exclusive entry
// points: Expand refuses while any node is degraded and Recover refuses
// during a transition — but a death during a transition no longer wedges
// the cluster; Kill resolves the transition first and recovery follows.

import (
	"errors"
	"fmt"
	"slices"

	"tsue/internal/netsim"
	"tsue/internal/placement"
	"tsue/internal/rebalance"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Expand grows the cluster by one OSD online: it wires a fresh node into
// the fabric, stages the adopting placement epoch at the MDS, migrates
// every moving PG under the rebalance scheduler, and commits the epoch.
// Foreground I/O keeps flowing except inside each PG's brief cutover
// fence. It returns the migration report and the new OSD's node ID.
//
// Failure contract: an OSD death mid-migration (Kill or MarkDead take
// the node off the fabric) is resolved per PG — abort or finish — and
// Expand still returns a committed epoch plus the per-PG outcomes in the
// report. Only unexpected protocol errors remain fatal to the run.
func (c *Cluster) Expand(p *sim.Proc, via *Client, rcfg rebalance.Config) (*rebalance.Report, wire.NodeID, error) {
	if len(c.degraded) > 0 {
		return nil, 0, fmt.Errorf("cluster: cannot expand: %w", ErrClusterDegraded)
	}
	if t := c.MDS.trans; t != nil {
		return nil, 0, fmt.Errorf("cluster: cannot expand to a new epoch (epoch %d staged): %w", t.next, ErrTransitionInProgress)
	}
	osd, err := c.AddOSDNode()
	if err != nil {
		return nil, 0, err
	}
	next, err := c.stageEpoch(p, via, &wire.EpochUpdate{Kind: wire.EpochStageAddOSD, OSD: osd.id})
	if err != nil {
		return nil, osd.id, err
	}
	rep, err := c.migrate(p, via, next, rcfg)
	if err != nil {
		return nil, osd.id, err
	}
	return rep, osd.id, nil
}

// stageEpoch sends the staging request to the MDS and returns the staged
// epoch number.
func (c *Cluster) stageEpoch(p *sim.Proc, via *Client, req *wire.EpochUpdate) (uint64, error) {
	er, err := askMDS[*wire.EpochResp](p, via, req, "cluster: stage epoch")
	if err != nil {
		return 0, err
	}
	return er.Epoch, nil
}

// migrate plans and executes the committed→next migration, then commits
// the epoch at the MDS. Aborted PGs (death resolution) stay physically at
// their old homes: their moves become recovery-style placement remaps an
// instant before the commit, so the new map plus the overlay resolves
// every block to where its bytes really are.
func (c *Cluster) migrate(p *sim.Proc, via *Client, next uint64, rcfg rebalance.Config) (*rebalance.Report, error) {
	m := c.MDS
	stripes := m.allStripes()
	moves := placement.Diff(m.epochs.At(next-1), m.epochs.At(next), stripes)
	// Overlay physical remaps from past recoveries: a block's true source
	// is wherever it lives now, and a move whose destination already hosts
	// it is a no-op.
	kept := moves[:0]
	for _, mv := range moves {
		if over, ok := c.remap[mv.Blk]; ok {
			mv.From = over
		}
		if mv.From != mv.To {
			kept = append(kept, mv)
		}
	}
	plan := rebalance.BuildPlan(next-1, next, kept, m.epochs.MinimalBound(next, stripes))
	for _, pg := range plan.PGs {
		m.setPGStage(pg.PG, StageStaged)
		c.fireTransEvent(pg, StageStaged, 0)
	}
	rep, err := rebalance.Run(c.Env, p, plan, rcfg, &pgMover{c: c, via: via})
	if err != nil {
		// Unexpected protocol failure (death resolution never errors the
		// scheduler): the staged epoch stays and the cluster must be
		// discarded, like an engine pipeline invariant violation.
		return nil, fmt.Errorf("cluster: migration to epoch %d failed mid-transition (cluster must be discarded): %w", next, err)
	}
	// Aborted PGs' blocks stayed at their old homes; pin them there under
	// the about-to-commit map. Installing the remaps before the commit RPC
	// is glitch-free: until the commit lands these PGs still resolve under
	// the old epoch, where the remap repeats what the map already says.
	for _, res := range rep.Outcomes {
		if res.Outcome != rebalance.OutcomeAborted {
			continue
		}
		for _, pg := range plan.PGs {
			if pg.PG != res.PG {
				continue
			}
			for _, mv := range pg.Moves {
				c.remap[mv.Blk] = mv.From
			}
		}
	}
	// Commit: every moving PG has cut over or aborted; the remaining PGs'
	// placement is identical under both maps (or they hold no blocks), so
	// the flip needs no fence. In-flight requests tagged with the retiring
	// epoch bounce once and re-resolve.
	if _, err := askMDS[*wire.EpochResp](p, via, &wire.EpochUpdate{Kind: wire.EpochCommit}, "cluster: commit epoch"); err != nil {
		return nil, err
	}
	return rep, nil
}

// TransEvent is one observation point of a PG's migration, delivered to
// the transition hook: the PG, the stage just entered (Copied > 0 marks
// phase-1 copy progress within StageCopying), and the PG's planned moves.
type TransEvent struct {
	PG     int
	Stage  PGStage
	Copied int
	Moves  []placement.Move
}

// SetTransHook installs an instrumentation hook invoked synchronously at
// every stage boundary of every migrating PG (tests and fault injection:
// the kill-at-stage grid takes an OSD down from inside the migration
// driver, which is what makes the grid deterministic). The hook must not
// block, so its death verb is MarkDead, which runs the death handler
// without waiting; Kill waits, and would wedge the driver.
func (c *Cluster) SetTransHook(fn func(TransEvent)) { c.transHook = fn }

func (c *Cluster) fireTransEvent(pg rebalance.PGMoves, stage PGStage, copied int) {
	if c.transHook != nil {
		c.transHook(TransEvent{PG: pg.PG, Stage: stage, Copied: copied, Moves: pg.Moves})
	}
}

// pgRole reports whether any of one PG's moves has a dead source or a dead
// destination.
func (c *Cluster) pgRole(pg rebalance.PGMoves) (src, dst bool) {
	for _, mv := range pg.Moves {
		src = src || c.Fabric.Down(mv.From)
		dst = dst || c.Fabric.Down(mv.To)
	}
	return src, dst
}

// pgMover is the cluster's rebalance.Mover.
type pgMover struct {
	c   *Cluster
	via *Client
}

// MigratePG migrates one PG's moving blocks end to end (see the package
// comment for the phase protocol), resolving mid-flight OSD deaths, read
// from the fabric, to an abort or a finish:
//
//   - pre-fence (staged / copying), a source or destination of this PG is
//     dead: ABORT — the copy is early, rolling back is cheap;
//   - inside the fence, a destination is dead at the check just before
//     overlay extraction: ABORT — nothing has left the old homes yet;
//   - inside the fence otherwise: FINISH — copies whose source died
//     complete by K-shard reconstruction (with the recovery repair's
//     re-encode when the dead source may have torn the stripe), their
//     unrecycled overlay replays from its reliability replicas;
//   - a destination dying from extraction on: FINISH — overlay aimed at
//     the dead new home is parked (Cluster.land) for the failure's
//     degraded-journal machinery.
//
// A dead bystander never aborts a PG: its migration completes normally.
func (pm *pgMover) MigratePG(p *sim.Proc, pg rebalance.PGMoves, th *rebalance.Throttle) (rebalance.PGResult, error) {
	c := pm.c
	res := rebalance.PGResult{PG: pg.PG, Outcome: rebalance.OutcomeCommitted}
	blockSize := c.Cfg.BlockSize
	c.MDS.setPGStage(pg.PG, StageCopying)
	c.fireTransEvent(pg, StageCopying, 0)

	// Phase 1: throttled bulk copy with foreground I/O flowing. Versions
	// are read immediately before each pull so any later write is caught by
	// the fenced catch-up.
	vers := make([]uint64, len(pg.Moves))
	for i, mv := range pg.Moves {
		if src, dst := c.pgRole(pg); src || dst {
			err := pm.abort(p, pg, &res)
			return res, err
		}
		th.Take(p, blockSize)
		vers[i] = c.OSDByID(mv.From).store.Version(mv.Blk)
		if err := pm.copyBlock(p, mv); err != nil {
			if src, dst := c.pgRole(pg); errors.Is(err, netsim.ErrNodeDown) && (src || dst) {
				// The copy's endpoint died under us: early abort.
				err := pm.abort(p, pg, &res)
				return res, err
			}
			return res, err
		}
		res.CopiedBlocks++
		res.CopiedBytes += blockSize
		c.fireTransEvent(pg, StageCopying, i+1)
	}

	// Phase 2+3: fenced cutover, serialized across concurrent migrations.
	c.cutMu.Acquire(p)
	defer c.cutMu.Release()
	gated := c.gatedTime()
	c.fenceUpdates(p)
	c.MDS.setPGStage(pg.PG, StageFenced)
	c.fireTransEvent(pg, StageFenced, 0)
	err := pm.cutoverLocked(p, pg, vers, &res)
	c.openGate()
	res.Stall = c.gatedTime() - gated
	if err == nil && res.Outcome != rebalance.OutcomeAborted {
		c.MDS.setPGStage(pg.PG, StageCommitted)
		c.fireTransEvent(pg, StageCommitted, 0)
	}
	return res, err
}

// cutoverLocked runs the fenced part of a PG migration: settle, catch-up
// re-copy (reconstruction for dead sources), overlay extraction, MDS
// cutover, replay, retirement — resolving deaths per the policy in
// MigratePG's comment. The caller holds the cutover mutex and the closed
// update gate.
func (pm *pgMover) cutoverLocked(p *sim.Proc, pg rebalance.PGMoves, vers []uint64, res *rebalance.PGResult) error {
	c := pm.c
	// Settle: bring raw shards to stripe consistency with minimal merging.
	// In-place engines drain their whole debt here (the "in-place schemes
	// drain" half of the cutover); TSUE retains its replayable overlay,
	// except that of a dead node: its stripes' raw shards feed the finish
	// policy's reconstructions and must flush like recovery's, so a barrier
	// scoped to each dead OSD follows. One barrier over the union of the
	// scopes would need a node set or overlay field in update.Scope that
	// only this caller uses.
	if err := c.SettleAll(p, pm.via, 0); err != nil {
		return err
	}
	for _, osd := range c.OSDs {
		if c.Fabric.Down(osd.id) {
			if err := c.SettleAll(p, pm.via, osd.id); err != nil {
				return err
			}
		}
	}
	// Finish-policy reconstructions and version-checked catch-up re-copies
	// run as rounds until quiescent: both yield on RPCs, so a source can
	// die between (or during) passes — invalidating an earlier skip — and
	// a re-encode repair writes live parities in place, possibly dirtying
	// another move's already-checked source. One round handles the common
	// case; the loop closes the races. A move whose destination is dead is
	// skipped: the PG aborts at the check before extraction.
	//
	//   - dead source: the copy completes from K surviving stripe peers,
	//     re-encoding the parity set when the death may have torn it
	//     (cluster.stripeRepair); a phase-1 raw copy whose version never
	//     moved is kept (its overlay replays below).
	//   - live source: re-copy when the raw bytes changed since phase 1 —
	//     foreground RMWs for in-place engines, recycle/settle-applied log
	//     merges for log-structured ones.
	settled := make([]bool, len(pg.Moves)) // dead-source move fully handled
	for round := 0; ; round++ {
		changed := false
		for i, mv := range pg.Moves {
			if !c.Fabric.Down(mv.From) || settled[i] || c.Fabric.Down(mv.To) {
				continue
			}
			// With no window to re-encode it, a stripe whose dead first
			// parity held the other parities' deltas is repaired here too.
			reenc := c.stripeRepair(mv.Blk) || c.collects() && int(mv.Blk.Index) == c.Cfg.K
			if !reenc && c.OSDByID(mv.From).store.Version(mv.Blk) == vers[i] {
				settled[i] = true
				continue
			}
			if err := pm.reconstructBlock(p, mv, reenc); err != nil {
				if errors.Is(err, netsim.ErrNodeDown) && c.Fabric.Down(mv.To) {
					continue
				}
				return err
			}
			settled[i] = true
			changed = true
			res.Reconstructed++
			res.CopiedBytes += c.Cfg.BlockSize
			res.Outcome = rebalance.OutcomeFinished
		}
		for i, mv := range pg.Moves {
			if c.Fabric.Down(mv.From) || c.Fabric.Down(mv.To) {
				continue // dead-source pass owns it (this round or the next)
			}
			cur := c.OSDByID(mv.From).store.Version(mv.Blk)
			if cur == vers[i] {
				continue
			}
			if err := pm.copyBlock(p, mv); err != nil {
				if errors.Is(err, netsim.ErrNodeDown) && c.Fabric.Down(mv.To) {
					continue
				}
				if errors.Is(err, netsim.ErrNodeDown) && c.Fabric.Down(mv.From) {
					changed = true // died mid-copy; next round reconstructs
					continue
				}
				return err
			}
			vers[i] = cur
			changed = true
			res.RecopiedBlocks++
			res.CopiedBytes += c.Cfg.BlockSize
		}
		if !changed {
			break
		}
		if round >= 8 {
			return fmt.Errorf("pg %d catch-up did not converge", pg.PG)
		}
	}
	// The point of no return: a new home that died before this check rolls
	// the PG back; nothing has left the old homes yet, so there is nothing
	// to restore. From here on a dead new home finishes the PG instead.
	if _, dst := c.pgRole(pg); dst {
		return pm.abort(p, pg, res)
	}
	// Extract the moving blocks' replayable overlay records from their old
	// homes (empty for in-place engines). Reads of this PG are fenced, so
	// the extract→replay gap is unobservable. A home that died mid-loop is
	// skipped: its unrecycled overlay lives on in reliability replicas.
	items := make([][]wire.ReplicaItem, len(pg.Moves))
	for i, mv := range pg.Moves {
		if c.Fabric.Down(mv.From) {
			continue
		}
		got, err := pm.extractLog(p, mv)
		if err != nil {
			if errors.Is(err, netsim.ErrNodeDown) {
				continue
			}
			return err
		}
		items[i] = got
	}
	// A source dead by now gave up no overlay above: each one's replicated
	// overlay replays below, once per dead source.
	var deadSrcs []wire.NodeID
	for _, mv := range pg.Moves {
		if c.Fabric.Down(mv.From) && !slices.Contains(deadSrcs, mv.From) {
			deadSrcs = append(deadSrcs, mv.From)
			res.Outcome = rebalance.OutcomeFinished
		}
	}
	// Flip the PG: from here the new homes are authoritative, so the
	// replays below route (and their engines' later recycles resolve)
	// under the new map. A moving block's recovery remap names its old
	// home, so it goes first: from here Placement resolves the block to
	// its new home, where land replays it.
	if err := pm.cutover(p, pg.PG); err != nil {
		return err
	}
	for _, mv := range pg.Moves {
		delete(c.remap, mv.Blk)
	}
	c.fireTransEvent(pg, StageReplaying, 0)
	for i, mv := range pg.Moves {
		n, b, err := c.land(p, pm.via.id, items[i])
		res.ReplayedItems += n
		res.ReplayedBytes += b
		if err != nil {
			return err
		}
		if c.Fabric.Down(mv.To) {
			res.Outcome = rebalance.OutcomeFinished
		}
	}
	for _, dead := range deadSrcs {
		// A dead source's unrecycled overlay for the moving blocks never
		// reached the extraction above; replay it from its reliability
		// replicas now, so reads at the new homes are exact the moment the
		// fence opens instead of waiting for the failure's recovery.
		// (Recovery later replays the same replicas again through the
		// surrogate journal — idempotent, and ordered before any degraded
		// update.)
		if err := pm.replayDeadSourceOverlay(p, pg, dead, res); err != nil {
			return err
		}
	}
	// Retire the old copies and per-stripe engine baselines (PARIX's orig
	// coverage) the move invalidated. Control-plane metadata; the FTL sees
	// the dropped blocks as trimmed space. Deleting a dead old home's entry
	// keeps recovery's lost-block enumeration honest: the block is not
	// lost, it moved.
	blks := make([]wire.BlockID, 0, len(pg.Moves))
	for _, mv := range pg.Moves {
		c.OSDByID(mv.From).store.Delete(mv.Blk)
		blks = append(blks, mv.Blk)
	}
	c.resetStripeState(blks)
	return nil
}

// abort rolls one PG's migration back before its overlay extraction:
// partial copies at the staged-epoch destinations are retired and the MDS
// records the abort, so the PG keeps resolving under the committed epoch
// and its moves become physical remaps at commit.
func (pm *pgMover) abort(p *sim.Proc, pg rebalance.PGMoves, res *rebalance.PGResult) error {
	for _, mv := range pg.Moves {
		// Direct store surgery: a live destination's partial copy is
		// unreachable garbage, a dead one's must not resurface as a "lost
		// block" when that node is later recovered.
		pm.c.OSDByID(mv.To).store.Delete(mv.Blk)
	}
	req := &wire.PGAbort{PG: uint32(pg.PG), Epoch: pm.c.MDS.trans.next}
	if err := wire.AckErr(pm.c.Fabric.Call(p, pm.via.id, mdsID, req)); err != nil {
		return fmt.Errorf("pg %d abort: %w", pg.PG, err)
	}
	res.Outcome = rebalance.OutcomeAborted
	return nil
}

// replayDeadSourceOverlay fetches the dead node's replicated unrecycled
// DataLog items, filters them to this PG's moving blocks, and replays them
// at the new homes in original append order — the log follows the block
// through the failure, via the replica path instead of extraction.
func (pm *pgMover) replayDeadSourceOverlay(p *sim.Proc, pg rebalance.PGMoves, dead wire.NodeID, res *rebalance.PGResult) error {
	c := pm.c
	items, err := c.fetchReplicaItems(p, dead, pm.via)
	if err != nil {
		return err
	}
	moving := make(map[wire.BlockID]bool, len(pg.Moves))
	for _, mv := range pg.Moves {
		if mv.From == dead {
			moving[mv.Blk] = true
		}
	}
	var overlay []wire.ReplicaItem
	for _, it := range items {
		if moving[it.Blk] {
			overlay = append(overlay, it)
		}
	}
	n, b, err := c.land(p, pm.via.id, overlay)
	res.ReplayedItems += n
	res.ReplayedBytes += b
	return err
}

func (pm *pgMover) copyBlock(p *sim.Proc, mv placement.Move) error {
	req := &wire.MigrateBlock{Blk: mv.Blk, From: mv.From}
	if err := wire.AckErr(pm.c.Fabric.Call(p, pm.via.id, mv.To, req)); err != nil {
		return fmt.Errorf("migrate copy %v: %w", mv.Blk, err)
	}
	return nil
}

// reconstructBlock asks the new home to rebuild the moving block from K
// surviving stripe peers instead of pulling it from its dead old home —
// the finish policy's copy path. It must run under the fence, after the
// settle barrier.
func (pm *pgMover) reconstructBlock(p *sim.Proc, mv placement.Move, reencode bool) error {
	req := &wire.MigrateBlock{Blk: mv.Blk, From: mv.From, Reconstruct: true, Reencode: reencode}
	if err := wire.AckErr(pm.c.Fabric.Call(p, pm.via.id, mv.To, req)); err != nil {
		return fmt.Errorf("migrate reconstruct %v: %w", mv.Blk, err)
	}
	return nil
}

func (pm *pgMover) extractLog(p *sim.Proc, mv placement.Move) ([]wire.ReplicaItem, error) {
	resp, err := pm.c.Fabric.Call(p, pm.via.id, mv.From, &wire.MigrateLog{Blk: mv.Blk})
	if err != nil {
		return nil, fmt.Errorf("migrate log %v: %w", mv.Blk, err)
	}
	rr, ok := resp.(*wire.ReplicaResp)
	if !ok {
		return nil, fmt.Errorf("migrate log %v: unexpected response %T", mv.Blk, resp)
	}
	return rr.Items, nil
}

func (pm *pgMover) cutover(p *sim.Proc, pg int) error {
	req := &wire.PGCutover{PG: uint32(pg), Epoch: pm.c.MDS.trans.next}
	if err := wire.AckErr(pm.c.Fabric.Call(p, pm.via.id, mdsID, req)); err != nil {
		return fmt.Errorf("pg %d cutover: %w", pg, err)
	}
	return nil
}
