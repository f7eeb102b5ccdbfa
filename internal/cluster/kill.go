package cluster

// Kill: the cluster's first-class OSD-death entry point. Tests and the
// harness used to flip Fabric.SetDown directly, which left two windows
// undefined: a death during an online rebalance (the migration wedged and
// the cluster had to be discarded) and the death of a surrogate OSD inside
// a degraded window (the journal — and with it acked client updates — was
// simply gone). Kill closes both:
//
//   - mid-transition, it publishes the death to the migration driver
//     (MarkDead) and waits until every in-flight PG has resolved to abort
//     or finish and the epoch has committed, so a subsequent Recover runs
//     under one settled map;
//   - mid-degraded-window, it detects the surrogate role and read-repairs
//     the journal from the dead surrogate's fixed quorum holder set: the
//     sequenced appends are unioned across every reachable holder
//     (by seq; each acked append is on every holder that was reachable
//     when it was acked, so the union holds every acked seq), spliced
//     behind a re-fetched seed share onto the new surrogate, and
//     re-replicated under the new surrogate's own holder set — no acked
//     update is lost through any m concurrent deaths and no client op
//     hangs. Only when every holder is unreachable too (> m deaths) is the
//     journal unrecoverable and Kill fails fast with ErrSurrogateLost.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Sentinel errors for the cluster's fatal control-plane guards. They are
// distinct from the retryable routing bounces (stale epoch, degraded route
// gone, cutover fence): a caller that sees one of these must change its
// plan, not retry the same call. retryableRouteErr matches only the bounce
// sentinels by errors.Is, so it never matches these —
// TestSentinelErrorsNotRetryable pins that.
var (
	// ErrClusterDegraded: the operation refuses while a node is served in
	// degraded mode (e.g. Expand during a failure window).
	ErrClusterDegraded = errors.New("cluster: a node is degraded")
	// ErrTransitionInProgress: the operation refuses while a placement
	// transition is staged (e.g. Recover or a second Expand mid-rebalance).
	// Kill resolves the transition; retrying the operation afterwards is
	// the supported sequence.
	ErrTransitionInProgress = errors.New("cluster: placement transition in progress")
	// ErrSurrogateLost: a surrogate OSD died and its degraded-update
	// journal cannot be read-repaired because every member of its quorum
	// holder set is unreachable too (more than m concurrent deaths, beyond
	// the scheme's budget); updates journaled in the window may be lost and
	// the run must be treated as failed.
	ErrSurrogateLost = errors.New("cluster: surrogate journal unrecoverable")
)

// KillReport describes what a Kill had to resolve beyond taking the node
// off the fabric.
type KillReport struct {
	// TransitionResolved is set when the death landed during a placement
	// transition; SettledEpoch is the epoch the transition committed at
	// after per-PG abort/finish resolution. Per-PG outcomes appear in the
	// rebalance.Report returned to the Expand caller.
	TransitionResolved bool
	SettledEpoch       uint64
	// PromotedJournals counts degraded-update journals promoted (via quorum
	// read-repair) because the dead node was serving as a surrogate.
	PromotedJournals int
	// RepairedItems counts journal records recovered from quorum holders
	// during those promotions.
	RepairedItems int
}

// resolveWait bounds how long Kill waits (virtual time) for the migration
// driver to resolve an in-flight transition. Generous: resolution is
// bounded by the remaining fenced work, not by the bulk-copy throttle.
const resolveWait = 5 * time.Minute

// Kill takes an OSD off the fabric and resolves every control-plane state
// the death lands in: an in-flight placement transition resolves per PG
// (abort or finish) and commits, and any degraded-update journal the node
// held as surrogate is promoted onto its replica holder. It must be called
// from a process other than the one driving an Expand. After Kill
// returns, Recover(failed) proceeds normally under the settled epoch.
func (c *Cluster) Kill(p *sim.Proc, failed wire.NodeID, via *Client) (*KillReport, error) {
	if c.Fabric.Down(failed) {
		return nil, fmt.Errorf("cluster: Kill: node %d is already down", failed)
	}
	rep := &KillReport{}
	inTrans := c.MDS.trans != nil
	c.MarkDead(failed)
	// Mutual exclusion means at most one of these two branches has work:
	// degraded state cannot exist while a transition is staged.
	for _, f := range c.degradedNodes() {
		if err := c.promoteSurrogate(p, c.degraded[f], failed, via, rep); err != nil {
			return rep, err
		}
	}
	if inTrans {
		rep.TransitionResolved = true
		deadline := p.Now() + resolveWait
		for c.MDS.trans != nil {
			if p.Now() > deadline {
				return rep, fmt.Errorf("cluster: Kill: transition did not resolve within %v", resolveWait)
			}
			p.Sleep(200 * time.Microsecond)
		}
		rep.SettledEpoch = c.MDS.committed
	}
	return rep, nil
}

// promoteSurrogate re-homes the degraded-update journal a dead surrogate
// kept for st.failed by read-repairing across the victim's fixed quorum
// holder set. Every reachable holder's sequenced post-seed appends are
// fetched (non-destructive JournalFetch) and unioned by seq. Every acked
// append reached every then-reachable holder, so the union holds every
// acked seq, even when a holder was down for some appends (a flap). A seq
// in 1..ackSeq missing from the union is lost unless its quorum round
// failed (st.unacked: the client retried it under a later seq); a lost one
// means more than m holders died (ErrSurrogateLost). The promoted journal
// is rebuilt in original order — the re-fetched seed share (ReplicaFetch
// is non-destructive), the re-spliced transition orphans, then every
// recovered append in seq order — on the first live holder, and the
// recovered appends are re-replicated under the NEW surrogate's holder set
// with fresh seqs, restoring the quorum so a chained surrogate death is
// equally survivable. Route re-pointing is atomic with the splice, so a
// degraded op admitted after promotion always sees the full journal.
func (c *Cluster) promoteSurrogate(p *sim.Proc, st *degradedState, victim wire.NodeID, via *Client, rep *KillReport) error {
	pgs := make(map[int]bool)
	for pg, sur := range st.surr {
		if sur == victim {
			pgs[pg] = true
		}
	}
	if len(pgs) == 0 {
		return nil
	}
	var reachable []wire.NodeID
	for _, h := range st.holders[victim] {
		if !c.Fabric.Down(h) {
			reachable = append(reachable, h)
		}
	}
	ackSeq := st.ackSeq[victim]
	if len(reachable) == 0 {
		if ackSeq > 0 {
			return fmt.Errorf("cluster: surrogate %d for node %d died and all %d quorum holders are unreachable: %w",
				victim, st.failed, len(st.holders[victim]), ErrSurrogateLost)
		}
		// Nothing was ever acked through the quorum; any live successor can
		// host the re-fetched seeds.
		if cand := c.nextLive(victim, st.failed); cand != victim {
			reachable = []wire.NodeID{cand}
		} else {
			return fmt.Errorf("cluster: surrogate %d for node %d died with no live successor: %w",
				victim, st.failed, ErrSurrogateLost)
		}
	}
	// Union the replicated appends across all reachable holders, dedup by
	// seq (a seq names exactly one record; later fetches of the same seq are
	// identical copies).
	bySeq := make(map[uint64]wire.JournalItem)
	for _, h := range reachable {
		resp, err := c.Fabric.Call(p, via.id, h, &wire.JournalFetch{Failed: st.failed, Surrogate: victim})
		if errors.Is(err, netsim.ErrNodeDown) {
			continue // died under us: the other holders cover it
		}
		if err = wire.AckErr(resp, err); err != nil {
			return fmt.Errorf("journal repair fetch @%d: %w", h, err)
		}
		fr, ok := resp.(*wire.JournalFetchResp)
		if !ok {
			return fmt.Errorf("journal repair fetch @%d: unexpected response %T", h, resp)
		}
		for _, it := range fr.Items {
			if _, dup := bySeq[it.Seq]; !dup {
				bySeq[it.Seq] = it
			}
		}
	}
	// Every acked append must have survived on some holder; a seq whose
	// quorum round failed was retried under a later one and may be on none.
	for seq := uint64(1); seq <= ackSeq; seq++ {
		if _, ok := bySeq[seq]; !ok && !slices.Contains(st.unacked[victim], seq) {
			return fmt.Errorf("cluster: surrogate %d journal for node %d lost acked append seq %d/%d: %w",
				victim, st.failed, seq, ackSeq, ErrSurrogateLost)
		}
	}
	recovered := make([]wire.JournalItem, 0, len(bySeq))
	for _, it := range bySeq {
		recovered = append(recovered, it)
	}
	sort.Slice(recovered, func(a, b int) bool { return recovered[a].Seq < recovered[b].Seq })
	cand := reachable[0]
	seeds, err := c.fetchReplicaItems(p, st.failed, via)
	if err != nil {
		return err
	}
	pmap := c.MDS.PlacementMap()
	osd := c.OSDByID(cand)
	j := osd.journalFor(st.failed)
	var seeded int64
	for _, it := range seeds {
		// Same filters registerDegraded applied: the victim's PGs only, and
		// degraded stripes only — a finish-resolved transition can leave
		// un-retired replica items for blocks that migrated off the failed
		// node, and replaying those at the new homes would overwrite newer
		// foreground writes.
		if !pgs[pmap.PGOf(it.Blk.StripeID())] || !st.stripes[it.Blk.StripeID()] {
			continue
		}
		j.add(it.Blk, it.Off, it.Data)
		seeded += int64(len(it.Data))
	}
	// Transition-orphaned records the victim's journal was seeded with live
	// nowhere else (replicas retired at extraction, never re-replicated);
	// re-splice them from the degraded state, in their original
	// post-replica-seed position.
	for _, it := range st.orphans {
		if !pgs[pmap.PGOf(it.Blk.StripeID())] {
			continue
		}
		j.add(it.Blk, it.Off, it.Data)
		seeded += int64(len(it.Data))
	}
	// Splice the recovered appends behind the seeds in original seq order,
	// renumbering them into the new surrogate's own append sequence.
	newSeqs := make([]uint64, len(recovered))
	for i, it := range recovered {
		j.add(it.Blk, it.Off, it.Data)
		j.nextSeq++
		newSeqs[i] = j.nextSeq
		seeded += int64(len(it.Data))
	}
	if seeded > 0 {
		osd.journalPersist(p, j, seeded)
	}
	rep.RepairedItems += len(recovered)
	// Re-point the degraded routes — same instant as the splice (no yield
	// since the fetch), so no op can observe a half-promoted journal.
	for pg := range pgs {
		st.surr[pg] = cand
	}
	delete(st.holders, victim)
	delete(st.ackSeq, victim)
	delete(st.unacked, victim)
	if _, ok := st.holders[cand]; !ok {
		st.holders[cand] = c.journalHolders(cand, st.failed)
	}
	// Re-replicate the recovered appends under the new surrogate's holder
	// set: the journal's m-death budget must hold again after the repair,
	// not just until the next death.
	for i, it := range recovered {
		acked := false
		for _, h := range st.holders[cand] {
			if c.Fabric.Down(h) {
				continue
			}
			resp, err := osd.Call(p, h, &wire.JournalReplica{
				Failed: st.failed, Surrogate: cand, Seq: newSeqs[i],
				Blk: it.Blk, Off: it.Off, Data: it.Data, Sum: wire.Checksum(it.Data),
			})
			if errors.Is(err, netsim.ErrNodeDown) {
				continue
			}
			if err := wire.AckErr(resp, err); err != nil {
				return fmt.Errorf("journal re-replicate @%d: %w", h, err)
			}
			osd.jrSentMsgs++
			osd.jrSentBytes += int64(len(it.Data))
			acked = true
		}
		if acked && st.ackSeq[cand] < newSeqs[i] {
			st.ackSeq[cand] = newSeqs[i]
		}
	}
	surrs := st.surrogates[:0]
	seen := false
	for _, sur := range st.surrogates {
		if sur == victim {
			continue
		}
		if sur == cand {
			seen = true
		}
		surrs = append(surrs, sur)
	}
	if !seen {
		surrs = append(surrs, cand)
	}
	st.surrogates = surrs
	rep.PromotedJournals++
	return nil
}

// degradedNodes returns the failed nodes currently served in degraded
// mode, in deterministic order.
func (c *Cluster) degradedNodes() []wire.NodeID {
	out := make([]wire.NodeID, 0, len(c.degraded))
	for f := range c.degraded {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
