package cluster

// Deaths. Every way an OSD dies goes through one handler, die: Kill,
// BeginDegraded and Recover run it inline, and a hook's MarkDead runs it
// without blocking. The handler checks that the ID names an OSD, takes the
// node off the fabric and promotes every degraded-update journal the node
// kept as a surrogate:
//
//   - the fabric is the one liveness view: a placement transition in
//     flight reads the death from there and resolves every PG it touches
//     (abort or finish), and Kill waits until the MDS has committed the
//     epoch (the commit wakes it), so a subsequent Recover runs under one
//     settled map;
//   - a journal the dead node kept as surrogate is read-repaired from its
//     fixed quorum holder set: the sequenced appends are unioned across
//     every live holder (by seq; each acked append is on every holder that
//     was reachable when it was acked, so the union holds every acked
//     seq), spliced behind a re-fetched seed share onto the dead
//     surrogate's first live ring successor — named only after the last
//     fetch, so a node that died during the repair is never chosen — and
//     re-replicated under the new surrogate's own holder set: no acked
//     update is lost through any m concurrent deaths and no client op
//     hangs. Only when every holder is unreachable too (> m deaths) is the
//     journal unrecoverable, and the promotion fails with
//     ErrSurrogateLost.
//
// A death can also take log state that only the dead node and a window's
// failed node kept: state the window's settle had yet to re-protect, or a
// surrogate's journal seeds whose only other copy was on the surrogate
// itself. The window then fails with ErrLogLost instead of replaying
// without it.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/update"
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
	// ErrStripeLost: a degraded read or a rebuild needs K shards of a
	// stripe that has more than m dead members, beyond the code's budget;
	// the stripe's lost blocks cannot be reconstructed.
	ErrStripeLost = errors.New("cluster: stripe has more dead members than the code tolerates")
	// ErrLogLost: a node died holding log state that only it and a
	// window's failed node kept. Either the window's settle was still
	// re-protecting it (exposes): DataLog records whose last replica the
	// failed node held, past the DataLog's Copies-1 budget, or deltas
	// buffered for the other parities of a stripe with a data block on the
	// failed node, past the buffer's budget of M deaths once the first
	// window has settled. Or the node was a surrogate whose journal seeds
	// no live replica holder still has (promoteSurrogate). The state is
	// gone, and the window's settle or promotion, and so its Recover, fails
	// with it.
	ErrLogLost = errors.New("cluster: log records lost with every copy")
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

// Kill is the blocking death verb: it takes an OSD down through the death
// handler (die), so every journal the node kept as surrogate is promoted
// onto its first live ring successor, and then waits until an in-flight
// placement transition has resolved per PG (abort or finish) and
// committed. It opens no window: the node's own stripes are served by a
// window only once BeginDegraded or Recover opens one. It must be called
// from a process other than the one driving an Expand. After Kill returns,
// Recover(failed) proceeds normally under the settled epoch.
func (c *Cluster) Kill(p *sim.Proc, failed wire.NodeID, via *Client) (*KillReport, error) {
	if c.Fabric.Down(failed) {
		return nil, fmt.Errorf("cluster: Kill: node %d is already down", failed)
	}
	rep := &KillReport{}
	inTrans := c.MDS.trans != nil
	// Mutual exclusion means at most one of the promotion and the wait has
	// work: degraded state cannot exist while a transition is staged.
	if err := c.die(p, failed, via, rep); err != nil {
		return rep, err
	}
	if inTrans {
		rep.TransitionResolved = true
		for c.MDS.trans != nil {
			c.MDS.committedCond.Wait(p)
		}
		rep.SettledEpoch = c.MDS.committed
	}
	return rep, nil
}

// MarkDead is the death verb for hooks, which must not block (SetTransHook,
// handler wrappers in tests): it takes an OSD down through the death
// handler and returns at once. A placement transition in flight reads the
// death from the fabric; the journals of the windows the node served are
// promoted by a proc of its own, whose error the window's Recover returns.
// Kill is the verb that also waits both out. An ID that names no OSD is a
// bug in the hook, and panics.
func (c *Cluster) MarkDead(failed wire.NodeID) {
	if err := c.die(nil, failed, nil, nil); err != nil {
		panic(err)
	}
}

// die is the cluster's one death handler. It fails unless failed names an
// OSD. A node already down is left as it is: its death was handled when it
// went down, so a second call neither promotes again nor races the first
// one's promotion. Otherwise the node comes off the fabric, and every
// window it served as a surrogate, in the order the windows opened, has
// the node's journal promoted (promoteSurrogate; rep may be nil). Each
// window keeps its promotion's error for its Recover
// (degradedState.promoteErr), and die returns the first one. A window
// whose settle was still re-protecting log state that only the node and
// the window's failed node kept (exposes) gets ErrLogLost as its settle's
// error, whichever verb the death came through. With p nil
// the caller must not block (MarkDead): the promotions then run in a proc
// of their own, from a client of their own, started only when the node
// served a window. A death with nothing to promote therefore adds no
// event.
func (c *Cluster) die(p *sim.Proc, failed wire.NodeID, via *Client, rep *KillReport) error {
	if err := c.checkOSD(failed); err != nil {
		return err
	}
	if c.Fabric.Down(failed) {
		return nil
	}
	c.Fabric.SetDown(failed, true)
	var served []*degradedState
	for _, st := range c.windows() {
		if len(st.pgsOf(failed)) > 0 {
			served = append(served, st)
		}
		if c.exposes(failed, st) {
			st.settleErr = cmp.Or(st.settleErr, fmt.Errorf("cluster: node %d died before the settle of node %d's window re-protected its logs: %w",
				failed, st.failed, ErrLogLost))
		}
	}
	if rep == nil {
		rep = &KillReport{}
	}
	promote := func(p *sim.Proc, via *Client) (first error) {
		for _, st := range served {
			if err := c.promoteSurrogate(p, st, failed, via, rep); err != nil {
				st.promoteErr = cmp.Or(st.promoteErr, err)
				first = cmp.Or(first, err)
			}
		}
		return first
	}
	if p != nil {
		return promote(p, via)
	}
	if len(served) > 0 {
		c.Env.Go("promote", func(p *sim.Proc) { _ = promote(p, c.NewClient()) })
	}
	return nil
}

// exposes reports whether node n's death now loses log state that window
// st's settle is still re-protecting: state only n and st's failed node
// kept (update.Exposer), or a data shard of a stripe the settle has yet to
// re-encode (degradedState.torn), whose parities may miss the deltas the
// failed node buffered.
func (c *Cluster) exposes(n wire.NodeID, st *degradedState) bool {
	if !st.settling {
		return false
	}
	if e, ok := c.OSDByID(n).engine.(update.Exposer); ok && e.Exposed(st.failed) {
		return true
	}
	return slices.ContainsFunc(st.torn, func(first wire.BlockID) bool {
		return slices.Contains(c.Placement(first.StripeID())[:c.Cfg.K], n)
	})
}

// checkOSD fails unless id names an OSD of the cluster.
func (c *Cluster) checkOSD(id wire.NodeID) error {
	if c.OSDByID(id) == nil {
		return fmt.Errorf("cluster: node %d is not an OSD", id)
	}
	return nil
}

// promoteSurrogate re-homes the degraded-update journal a dead surrogate
// kept for st.failed by read-repairing across the victim's fixed quorum
// holder set. Every live holder's sequenced post-seed appends are fetched
// (non-destructive JournalFetch) and unioned by seq. Every acked append
// reached every then-reachable holder, so the union holds every seq in the
// victim's acked set, even when a holder was down for some appends (a
// flap); an acked seq missing from it means more than m holders died
// (ErrSurrogateLost). After the last fetch (the seed share), with no yield
// until the routes flip, the new surrogate is named: the victim's first
// live ring successor, which is its first holder whenever that holder
// still lives. The promoted journal is rebuilt there in original order —
// the re-fetched seed share (ReplicaFetch is non-destructive) and the
// window's orphans (seedJournals), which must hold every seed byte the
// victim held (quorum.seeded; a seed has no quorum copy, so a shortfall
// means the victim was the last replica holder of the failed node's
// records: ErrLogLost), then every recovered append in seq
// order, renumbered into the new surrogate's own append sequence. In the
// same instant the victim's PGs route to the new surrogate (assign) and
// the recovered seqs enter its acked set (their clients were acked in the
// old window), so a degraded op admitted after promotion always sees the
// full journal. Each recovered append is then committed under the new
// surrogate's quorum like a client append, restoring the m-death budget so
// a chained surrogate death is equally survivable. A window the recovery
// cutover retired before the promotion or while its fetches yield is left
// alone: the cutover retires a route only after every extent of it was
// replayed and acked.
func (c *Cluster) promoteSurrogate(p *sim.Proc, st *degradedState, victim wire.NodeID, via *Client, rep *KillReport) error {
	pgs := st.pgsOf(victim)
	if len(pgs) == 0 || c.degraded[st.failed] != st {
		return nil
	}
	vq := st.quorum[victim]
	// Union the replicated appends across every live holder, dedup by seq
	// (a seq names exactly one record; later fetches of the same seq are
	// identical copies).
	bySeq := make(map[uint64]wire.JournalItem)
	for _, h := range vq.holders {
		if c.Fabric.Down(h) {
			continue
		}
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
	// The fetches yield, and the cutover may retire the window meanwhile. It
	// retires the route only after every extent was replayed and acked, so
	// a retired window has nothing left to promote.
	if c.degraded[st.failed] != st {
		return nil
	}
	missing := 0
	for seq := range vq.acked {
		if _, ok := bySeq[seq]; !ok {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("cluster: surrogate %d journal for node %d lost %d of %d acked appends: %w",
			victim, st.failed, missing, len(vq.acked), ErrSurrogateLost)
	}
	recovered := make([]wire.JournalItem, 0, len(bySeq))
	for _, it := range bySeq {
		recovered = append(recovered, it)
	}
	sort.Slice(recovered, func(a, b int) bool { return recovered[a].Seq < recovered[b].Seq })
	seeds, err := c.fetchReplicaItems(p, st.failed, via)
	if err != nil || c.degraded[st.failed] != st {
		return err
	}
	// The victim's seeds have no quorum copy: each must be found again.
	var found int64
	for _, it := range slices.Concat(seeds, st.orphans) {
		if _, ok := c.seedTarget(st, pgs, it); ok {
			found += int64(len(it.Data))
		}
	}
	if found < vq.seeded {
		return fmt.Errorf("cluster: surrogate %d for node %d died holding %d seed bytes no live replica holder has: %w",
			victim, st.failed, vq.seeded-found, ErrLogLost)
	}
	// The splice: the target is named after the last fetch, and nothing
	// below yields until the seed persist.
	next := c.ringAfter(victim, st.failed, 1)
	if len(next) == 0 {
		return fmt.Errorf("cluster: surrogate %d for node %d died with no live successor: %w",
			victim, st.failed, ErrSurrogateLost)
	}
	cand := next[0]
	st.surrogates = slices.DeleteFunc(st.surrogates, func(s wire.NodeID) bool { return s == victim })
	delete(st.quorum, victim)
	for pg := range pgs {
		//lint:allow maporder(every PG goes to the same surrogate, so the routes, its one quorum and its one place in st.surrogates come out the same in any order)
		c.assign(st, pg, cand)
	}
	q := st.quorum[cand]
	osd := c.OSDByID(cand)
	j := osd.journalFor(st.failed)
	seeded := c.seedJournals(st, pgs, seeds, st.orphans)
	for i := range recovered {
		recovered[i].Seq = j.append(recovered[i].Blk, recovered[i].Off, recovered[i].Data)
		q.acked[recovered[i].Seq] = true
	}
	c.persistSeeds(p, st, seeded)
	for _, it := range recovered {
		if err := osd.commit(p, st.failed, q, it, wire.Checksum(it.Data)); err != nil {
			return fmt.Errorf("journal re-replicate seq %d: %w", it.Seq, err)
		}
	}
	rep.RepairedItems += len(recovered)
	rep.PromotedJournals++
	return nil
}

// pgsOf returns the PGs of st that surrogate sur serves.
func (st *degradedState) pgsOf(sur wire.NodeID) map[int]bool {
	pgs := make(map[int]bool)
	for pg, s := range st.surr {
		if s == sur {
			pgs[pg] = true
		}
	}
	return pgs
}

// windows returns the open degraded windows, in the order they opened.
func (c *Cluster) windows() []*degradedState {
	out := make([]*degradedState, 0, len(c.degraded))
	for _, st := range c.degraded {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].opened < out[j].opened })
	return out
}
