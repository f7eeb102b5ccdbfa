package cluster

// Degraded-mode operation (§4.2 and the Fig. 8b scenario): while an OSD is
// failed — and, under interleaved recovery, while its blocks are being
// rebuilt — clients keep reading and updating the stripes it hosted.
//
// Every stripe whose placement includes the failed node is *degraded*.
// Client I/O to a degraded stripe is routed to a designated *surrogate* OSD
// (the next live node in ring order after the failed one):
//
//   - updates are journaled in a replicated log on the surrogate (the
//     degraded-update journal, a resurrected DataLog seeded with the failed
//     node's replicated unrecycled items) and replayed through the engines'
//     normal update path once the stripe is rebuilt;
//   - reads of a lost block reconstruct the requested range on the fly from
//     K surviving shards (rs.Reconstruct is bytewise, so only the range is
//     read), reads of a live block forward to its home engine; both overlay
//     the journal newest-wins so degraded reads stay read-your-writes.
//
// Routing degraded-stripe *updates* away from the engines is also what
// keeps reconstruction byte-exact: once the routes are published no update
// reaches a degraded stripe's raw shards, so the settle barrier that merges
// their pending log state can run while foreground traffic flows, and
// after it the raw shards of a degraded stripe are frozen and mutually
// consistent, however much traffic the rest of the cluster is taking.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"tsue/internal/device"
	"tsue/internal/logpool"
	"tsue/internal/netsim"
	"tsue/internal/obs"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

var (
	// errDegradedGone is the retryable error the surrogate returns when the
	// degraded route was cut over while the request was in flight; the
	// client re-resolves and retries on the normal path.
	errDegradedGone = errors.New("cluster: degraded route gone")
	// errStaleEpoch is the retryable error OSDs return for a request routed
	// under a placement-map view that no longer matches the block's PG's
	// authoritative epoch; the client refreshes its view from the MDS and
	// retries against the re-resolved home.
	errStaleEpoch = errors.New("cluster: stale placement epoch")
	// errMigrating is the retryable error OSDs return for a read that
	// arrives inside its PG's cutover fence — the window where overlay logs
	// have been extracted from the old home but not yet replayed at the new
	// one. The client waits out the fence and retries.
	errMigrating = errors.New("cluster: pg cutover in progress")
	// errQuorumUnreachable fails a degraded update whose quorum round
	// reached none of the surrogate's holders (every holder died
	// mid-window). It is not retryable: the journal's death budget is spent.
	errQuorumUnreachable = errors.New("cluster: degraded journal quorum unreachable")
)

// retryableRouteErr reports whether a client op failed only because its
// route is mid-transition (node just failed, registration in flight,
// degraded or epoch cutover just completed, or a PG cutover fence) and
// should be retried after a short wait. Responses carry the handler's
// error value across every hop, so a bounce wrapped with %w on the way
// still matches.
func retryableRouteErr(err error) bool {
	return errors.Is(err, netsim.ErrNodeDown) ||
		errors.Is(err, netsim.ErrPartitioned) ||
		errors.Is(err, errDegradedGone) ||
		errors.Is(err, errStaleEpoch) ||
		errors.Is(err, errMigrating)
}

// degradedState tracks one failed OSD served in degraded mode. Surrogates
// are assigned per placement group — each degraded PG routes to the
// placement map's stable replacement for the failed node's slot — so the
// journal and reconstruction load of a death spreads across the cluster
// instead of piling onto one ring successor.
type degradedState struct {
	failed wire.NodeID
	// surr maps each degraded PG to its surrogate OSD.
	surr map[int]wire.NodeID
	// surrogates lists the distinct surrogate OSDs in deterministic order
	// (cutover drains each one's journal).
	surrogates []wire.NodeID
	// stripes is every stripe whose placement includes the failed node.
	stripes map[wire.StripeID]bool
	// quorum is each surrogate's journal quorum (see quorum).
	quorum map[wire.NodeID]*quorum
	// settling is set from the registration until the window's settle
	// barrier ends (settleWindow): a degraded read of a block whose home is
	// down, which reconstructs from the stripe's raw shards, waits until no
	// live engine holds state for its byte range (readFenced), and a block's
	// rebuild until none holds state of its stripe (waitSettled).
	settling bool
	// settleErr is the settle barrier's error, if it failed, or the
	// ErrLogLost of a node that died while the settle was re-protecting
	// its logs (die, exposes): a rebuild still waiting for its stripe gives
	// up with it instead of reconstructing from shards the barrier may not
	// have merged.
	settleErr error
	// promoteErr is the error of a promotion of this window's journals
	// that failed: a failed Recover of the window returns it, also when the
	// death came from a hook that could not wait for it (MarkDead).
	promoteErr error
	// orphans keeps the records seeded into this window's journals that no
	// replica holds: the ones parked for the failed node before the window
	// opened (takeOrphans at registration) and the ones another window's
	// cutover handed over (land, rule 1). They exist neither in the DataLog
	// replicas nor in JournalReplica retention, so a surrogate promotion
	// must re-splice them from here.
	orphans []wire.ReplicaItem
	// torn lists, while the settle runs, the first parity blocks of the
	// stripes it has yet to re-encode (collectedOn, reencode): their live
	// parities may miss deltas the failed node buffered, so the stripe's
	// data shards are the only consistent copy until the re-encode ends.
	torn []wire.BlockID
	// opened numbers the windows in the order they opened (windows).
	opened uint64
}

// quorum is one surrogate's journal quorum. holders is its fixed holder
// set, chosen when the surrogate takes its first PG (assign). Every journal
// append replicates to all reachable holders before it is acked, so any m
// concurrent deaths leave at least one holder with every acked record
// (Cluster.promoteSurrogate unions them). acked is the set of append seqs
// whose client was told the record is durable: promotion after the
// surrogate's death must find each of them on some holder, or more than m
// nodes died and the journal is unrecoverable (ErrSurrogateLost).
type quorum struct {
	holders []wire.NodeID
	acked   map[uint64]bool
	// seeded counts the seed bytes the surrogate's journal took
	// (seedJournals): they have no quorum copy, so a promotion must find
	// them all again among the replica holders and the window's orphans.
	seeded int64
}

// ---- update gate ----

// The gate fences client updates during recovery's consistency windows: the
// route registration (for drain-first and log-replay, the whole drain or
// settle barrier and the rebuild too) and the journal cutover. Gated
// requests block rather than fail, so the foreground workload sees a
// latency dip, not errors — the IOPS shape the degraded experiment
// measures. Degraded reads never wait at the gate: a window's settle fences
// only degraded reads of lost blocks whose range the settle has yet to
// merge (degradedState.settling, settleFenced), and the cutover fences no
// read (handleDegradedRead). A normal read waits at the gate only inside a
// rebalance cutover fence on its own PG. The gate keeps its own clock:
// gatedTime is the total time it has been closed, and a recovery's
// GatedTime or a PG cutover's stall is the difference of two readings.

// closeGate closes the gate. Closing a closed gate leaves its clock running
// from the first close.
func (c *Cluster) closeGate() {
	if !c.gateClosed {
		c.gateClosed, c.gateClosedAt = true, c.Env.Now()
	}
}

// fenceUpdates closes the gate and waits until every client update that had
// already passed it has completed: normal-path updates (fully propagated
// through their engine's synchronous phase) AND surrogate-side degraded
// updates (appended and committed to their journal). A consistency barrier
// that runs after this cannot race a half-propagated update, and a journal
// cutover replays a journal no update will still append to. Reads are not
// waited for: the cutover keeps a journal readable until its replay is
// acked (handleDegradedRead). It returns how long it waited.
func (c *Cluster) fenceUpdates(p *sim.Proc) time.Duration {
	start := p.Now()
	c.closeGate()
	for c.updatesInFlight > 0 || c.surrOpsInFlight > 0 {
		c.gateCond.Wait(p)
	}
	return p.Now() - start
}

// surrOpDone retires one surrogate-side degraded update begun with
// surrOpsInFlight++ (which must happen atomically with the post-waitGate
// route re-check, i.e. with no yield in between).
func (c *Cluster) surrOpDone() {
	c.surrOpsInFlight--
	if c.surrOpsInFlight == 0 {
		c.gateCond.Broadcast()
	}
}

// openGate opens a closed gate, adding the closure to its clock, and wakes
// the ops waiting at it. Opening an open gate does nothing.
func (c *Cluster) openGate() {
	if !c.gateClosed {
		return
	}
	c.gateClosed = false
	c.gated += c.Env.Now() - c.gateClosedAt
	c.gateCond.Broadcast()
}

// gatedTime returns how long the gate has been closed in total, a closure
// still running included.
func (c *Cluster) gatedTime() time.Duration {
	if c.gateClosed {
		return c.gated + c.Env.Now() - c.gateClosedAt
	}
	return c.gated
}

// waitGate blocks p while the gate is closed. A wait that blocks is a span
// named name on node, in the fence stage.
func (c *Cluster) waitGate(p *sim.Proc, node wire.NodeID, name string) {
	if !c.gateClosed {
		return
	}
	fin := obs.SpanOn(p, obs.StageFence, name, node)
	for c.gateClosed {
		c.gateCond.Wait(p)
	}
	fin()
}

// ---- routing ----

// degradedRoute returns the surrogate serving stripe s if s is degraded:
// the surrogate assigned to the stripe's placement group. With concurrent
// deaths a stripe can be degraded under several windows at once, so the
// windows are consulted in the order they opened (Cluster.windows): a
// stripe stays with the window that first served it until that window
// retires, so no later window's journal holds a record of it newer than
// the first window's, and the first window's cutover can hand its records
// to the next one (land, rule 1) on top of older ones only.
func (c *Cluster) degradedRoute(s wire.StripeID) (failed, surrogate wire.NodeID, ok bool) {
	for _, st := range c.windows() {
		if st.stripes[s] {
			return st.failed, st.surr[c.PG(s)], true
		}
	}
	return 0, 0, false
}

// servesDegraded reports whether this OSD is the surrogate for the block's
// placement group under st (the surrogate-side route re-check).
func (st *degradedState) servesDegraded(c *Cluster, id wire.NodeID, blk wire.BlockID) bool {
	return st.surr[c.PG(blk.StripeID())] == id
}

// ringAfter returns the first n live OSDs after from in ring order,
// skipping from itself and skip; fewer when fewer are live.
func (c *Cluster) ringAfter(from, skip wire.NodeID, n int) []wire.NodeID {
	var out []wire.NodeID
	for step := 1; step < len(c.OSDs) && len(out) < n; step++ {
		id := c.OSDs[(int(from)-1+step)%len(c.OSDs)].id
		if id != skip && !c.Fabric.Down(id) {
			out = append(out, id)
		}
	}
	return out
}

// assign routes pg to surrogate sur under st. A surrogate taking its first
// PG gets its journal quorum fixed against the live set now: the first M
// live OSDs after it in ring order, skipping the failed node. M holders
// plus the surrogate give the journal the same m-death budget as the
// erasure code itself.
func (c *Cluster) assign(st *degradedState, pg int, sur wire.NodeID) {
	st.surr[pg] = sur
	if st.quorum[sur] == nil {
		st.quorum[sur] = &quorum{holders: c.ringAfter(sur, st.failed, c.Cfg.M), acked: make(map[uint64]bool)}
		st.surrogates = append(st.surrogates, sur)
	}
}

// persistSeeds charges each surrogate's journal persist for the seed bytes
// seedJournals added to it, every surrogate's at once: each appends to its
// own device. The seeds already have replicas elsewhere, so they are not
// re-replicated.
func (c *Cluster) persistSeeds(p *sim.Proc, st *degradedState, seeded map[wire.NodeID]int64) {
	var surs []*OSD
	for _, sur := range st.surrogates {
		if seeded[sur] > 0 {
			surs = append(surs, c.OSDByID(sur))
		}
	}
	// A journal persist cannot fail, so neither can the fan-out.
	_ = sim.Parallel(p, "persist-seed", len(surs), func(hp *sim.Proc, i int) error {
		surs[i].journalPersist(hp, surs[i].journalFor(st.failed), seeded[surs[i].id])
		return nil
	})
}

// registerDegraded publishes degraded routing for a failed node: it assigns
// a surrogate per degraded placement group (the placement map's stable
// replacement for the failed node's slot — which is also where the PG's
// lost blocks will rebuild, so the journal lands next to its replay
// targets), fixes each surrogate's journal quorum (assign), seeds the
// journals (seedJournals) so degraded reads see pre-failure updates and the
// cutover replays them, and records the degraded stripe set. The
// registration plus in-memory seeding happen atomically with
// respect to client routing, so no journaled update can land ahead of an
// older seed. The window is settling from the instant its routes publish,
// until the caller's settle barrier ends: a degraded read does not wait at
// the gate, so a lost-block read that arrives before the barrier starts is
// fenced per byte range already (readFenced).
func (c *Cluster) registerDegraded(p *sim.Proc, failed wire.NodeID, via *Client) (*degradedState, error) {
	if _, dup := c.degraded[failed]; dup {
		return nil, fmt.Errorf("cluster: node %d already degraded", failed)
	}
	items, err := c.fetchReplicaItems(p, failed, via)
	if err != nil {
		return nil, err
	}
	st := &degradedState{
		failed:   failed,
		surr:     make(map[int]wire.NodeID),
		stripes:  make(map[wire.StripeID]bool),
		quorum:   make(map[wire.NodeID]*quorum),
		settling: true,
	}
	dead := func(id wire.NodeID) bool { return c.Fabric.Down(id) }
	pmap := c.MDS.PlacementMap()
	// lostBlocks is sorted, so surrogate discovery order — and with it
	// st.surrogates and the cutover's drain order — is deterministic.
	for _, blk := range c.lostBlocks(failed) {
		s := blk.StripeID()
		st.stripes[s] = true
		pg := pmap.PGOf(s)
		if _, ok := st.surr[pg]; ok {
			continue
		}
		slot := pmap.MemberSlot(pg, failed)
		if slot < 0 {
			// The block can only live off its baseline PG member under a
			// pre-existing recovery remap; serve it from the slot-0 view.
			slot = 0
		}
		mem, err := pmap.Members(pg, dead)
		if err != nil {
			return nil, fmt.Errorf("cluster: no live surrogate for node %d pg %d: %w", failed, pg, err)
		}
		sur := mem[slot]
		if sur == failed || c.Fabric.Down(sur) {
			return nil, fmt.Errorf("cluster: surrogate %d for node %d pg %d not live", sur, failed, pg)
		}
		c.assign(st, pg, sur)
	}
	c.windowsOpened++
	st.opened = c.windowsOpened
	c.degraded[failed] = st
	st.orphans = c.takeOrphans(failed)
	c.persistSeeds(p, st, c.seedJournals(st, nil, items, st.orphans))
	return st, nil
}

// lostBlocks returns every block the current placement (remaps included)
// puts on a node, in BlockID order. Placement, not the dead node's store, is
// the authority for what a death loses: a block the map places elsewhere —
// e.g. one a finish-resolved transition migrated away — is not this
// failure's to journal for or rebuild.
func (c *Cluster) lostBlocks(failed wire.NodeID) []wire.BlockID {
	var lost []wire.BlockID
	for _, s := range c.MDS.allStripes() {
		for i, id := range c.Placement(s) {
			if id == failed {
				lost = append(lost, wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(i)})
			}
		}
	}
	return lost
}

// seedJournals adds seed records to the journals of the surrogates now
// serving their PGs, list after list, without yielding, and returns the
// bytes added per surrogate. A window's registration and a promotion pass
// the failed node's replicated unrecycled DataLog items first, then the
// window's orphans (parked for the failed node, or handed over by another
// window's cutover), which preserves append order per block: an orphan is
// newer than any replica seed of its block. Only degraded stripes are
// seeded — an item of a block that migrated off the failed node before its
// death was replayed at the new home already, and replaying it again would
// overwrite newer writes — and, with pgs set, only those PGs (a promotion
// re-seeds the dead surrogate's share). Seeds are seq-less: they are
// recoverable elsewhere, so they need no quorum, and each surrogate's
// quorum counts the seed bytes it took (quorum.seeded), so a promotion can
// tell when they are not.
func (c *Cluster) seedJournals(st *degradedState, pgs map[int]bool, lists ...[]wire.ReplicaItem) map[wire.NodeID]int64 {
	seeded := make(map[wire.NodeID]int64)
	for _, items := range lists {
		for _, it := range items {
			if sur, ok := c.seedTarget(st, pgs, it); ok {
				c.OSDByID(sur).journalFor(st.failed).add(it.Blk, it.Off, it.Data)
				seeded[sur] += int64(len(it.Data))
				st.quorum[sur].seeded += int64(len(it.Data))
			}
		}
	}
	return seeded
}

// seedTarget returns the surrogate whose journal seedJournals seeds it
// into, if any.
func (c *Cluster) seedTarget(st *degradedState, pgs map[int]bool, it wire.ReplicaItem) (wire.NodeID, bool) {
	s := it.Blk.StripeID()
	pg := c.MDS.PlacementMap().PGOf(s)
	if !st.stripes[s] || pgs != nil && !pgs[pg] {
		return 0, false
	}
	return st.surr[pg], true
}

// unregisterDegraded retires a window's routes and drops its journals'
// indexes and quorum retention, with no yield: from here on the stripes'
// reads and updates take the normal path. A degraded read still in flight
// keeps the log of its block it took before it forwarded.
func (c *Cluster) unregisterDegraded(failed wire.NodeID) {
	delete(c.degraded, failed)
	for _, osd := range c.OSDs {
		if j, ok := osd.journals[failed]; ok {
			j.blocks, j.order, j.fetched = nil, nil, 0
			// The quorum retention was promotion insurance for this window
			// only.
			j.repl = nil
		}
	}
}

// ---- replay ----

// land replays records from node from, in order, each at its block's home
// through the engine's Update (wire.ReplayUpdate), and returns the records
// and bytes that landed. Rebalance's cutover (overlay extracted from an old
// home, or a dead source's replicated overlay) and a surrogate's journal
// replay both come here. Each record takes the first rule that applies:
//
//  1. a down member of its stripe has an open degraded window: the record
//     joins that window (stash);
//  2. its home is down and has no window: it is parked for the home
//     (stash);
//  3. otherwise it replays at its home. A node-down answer, with the
//     sender alive, means the home or another node died before or during
//     the replay, and the engines see the death now: the record takes the
//     rules again, as a client update retries (a repeat rewrites the same
//     bytes), and a home that died takes rule 2. A live home whose engine
//     fans out to a dead member of the stripe (PL, PLR and PARIX do not
//     skip one) answers node-down on every attempt, once its first two
//     have written every live member; its second such answer lands the
//     record, and the dead member's shard is rebuilt from the live ones
//     when it recovers.
//
// So a replay whose stripe lost a member survives the loss within the
// erasure code's death budget instead of failing on the dead node. A
// replay from a node that is down itself still fails.
func (c *Cluster) land(p *sim.Proc, from wire.NodeID, items []wire.ReplicaItem) (int, int64, error) {
	landed, bytes := 0, int64(0)
next:
	for _, it := range items {
		var err error
		for attempt := 0; ; attempt++ {
			members := c.Placement(it.Blk.StripeID())
			home := members[it.Blk.Index]
			if c.stash(p, it, members) {
				continue next
			}
			if err != nil && c.Fabric.Down(from) {
				return landed, bytes, fmt.Errorf("replay %v @%d: %w", it.Blk, home, err)
			}
			req := &wire.ReplayUpdate{Blk: it.Blk, Off: it.Off, Data: it.Data, Sum: wire.Checksum(it.Data)}
			err = wire.AckErr(c.Fabric.Call(p, from, home, req))
			switch {
			case err == nil, attempt > 0 && errors.Is(err, netsim.ErrNodeDown) && !c.Fabric.Down(from) &&
				slices.ContainsFunc(members, c.Fabric.Down):
				landed++
				bytes += int64(len(it.Data))
				continue next
			case !errors.Is(err, netsim.ErrNodeDown) || attempt >= routeRetries:
				return landed, bytes, fmt.Errorf("replay %v @%d: %w", it.Blk, home, err)
			}
		}
	}
	return landed, bytes, nil
}

// stash keeps a record that cannot replay at its home now, and reports
// whether it did (land's rules 1 and 2); members is the record's stripe's
// placement. Under rule 1 the record joins the earliest-opened window
// whose failed node is still a member of its stripe: it goes into the
// journal of the stripe's surrogate there, its persist charged as a
// seed's, and into the window's orphans, so a promotion re-splices it,
// degraded reads overlay it and that window's cutover replays it. Windows
// are taken in the order they opened, as degradedRoute takes them: a
// stripe's updates go to the first window that opened on it, so whichever
// window's cutover hands its records over, the target journal holds
// nothing newer for the stripe. Under rule 2 the record is parked for its
// dead home, and registerDegraded seeds it into the window the home opens
// later, so no acked update is lost to a replay whose target died.
func (c *Cluster) stash(p *sim.Proc, it wire.ReplicaItem, members []wire.NodeID) bool {
	for _, st := range c.windows() {
		if slices.Contains(members, st.failed) {
			st.orphans = append(st.orphans, it)
			c.persistSeeds(p, st, c.seedJournals(st, nil, []wire.ReplicaItem{it}))
			return true
		}
	}
	home := members[it.Blk.Index]
	if !c.Fabric.Down(home) {
		return false
	}
	c.orphans[home] = append(c.orphans[home], it)
	return true
}

// takeOrphans removes and returns the records parked for a node.
func (c *Cluster) takeOrphans(target wire.NodeID) []wire.ReplicaItem {
	items := c.orphans[target]
	delete(c.orphans, target)
	return items
}

// ---- surrogate-side journal ----

// journal is the surrogate's degraded-update log for one failed node. In
// memory it is the DataLog's two-level index (paper §3.3): one
// Overwrite-mode logpool.BlockLog per block, so repeated and adjacent
// records of a block merge into non-overlapping extents as they arrive, and
// the blocks in order of first appearance. Degraded reads overlay it, and at
// the cutover the surrogate replays it whole from memory to the blocks'
// homes, each block's merged extents once (handleJournalReplay); the index
// stays until the window's route retires (unregisterDegraded), so a read
// overlays it throughout the replay. fetched is the record count of the
// index when its surrogate last replayed it. The journal is persisted to a
// circular device log and quorum-replicated to the surrogate's fixed holder
// set, record by record. The log takes both
// primary appends and durability copies held for other surrogates; primary
// counts only the former, so the placement experiment's surrogate-load
// accounting sees only primary journal work, not holder copies. nextSeq
// numbers this OSD's own appends (1, 2, ...; seeds and orphans carry no seq
// — they are recoverable elsewhere). repl retains, per appending surrogate,
// the sequenced durability copies this OSD holds as a quorum member so a
// dead surrogate's journal can be read-repaired across holders
// (Cluster.promoteSurrogate); they are dropped when the window closes.
type journal struct {
	log     *device.Log
	primary int64 // bytes of primary appends
	nextSeq uint64
	blocks  map[wire.BlockID]*logpool.BlockLog
	order   []wire.BlockID
	fetched int
	repl    map[wire.NodeID][]wire.JournalItem
}

// journalSpan bounds the circular on-disk journal region (per failed node).
const journalSpan = 64 << 20

// journalFor returns (creating on first use) the journal this OSD keeps on
// behalf of a failed node.
func (o *OSD) journalFor(failed wire.NodeID) *journal {
	j, ok := o.journals[failed]
	if !ok {
		j = &journal{log: o.dev.NewLog(fmt.Sprintf("degraded-journal-%d@%d", failed, o.id), journalSpan)}
		o.journals[failed] = j
	}
	return j
}

// add merges one record into the index, newest bytes winning. The bytes are
// copied: every caller's buffer is shared (a replica holder's item, an
// orphan kept for promotion, a payload also sent to the quorum holders).
func (j *journal) add(blk wire.BlockID, off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	b, ok := j.blocks[blk]
	if !ok {
		if j.blocks == nil {
			j.blocks = make(map[wire.BlockID]*logpool.BlockLog)
		}
		b = &logpool.BlockLog{}
		j.blocks[blk] = b
		j.order = append(j.order, blk)
	}
	b.Insert(off, data, logpool.Overwrite)
}

// records returns how many records the index took (before the merge).
func (j *journal) records() int {
	n := 0
	for _, blk := range j.order {
		n += j.blocks[blk].RawAppends
	}
	return n
}

// extents returns the index's merged extents as replay records, one run
// per block: blocks in order of first appearance and each block's extents
// in offset order. The index keeps them and the records share its buffers,
// which is safe while the gate is closed: no record is added to the index
// then, so no insert can merge into a buffer the replay is sending.
func (j *journal) extents() [][]wire.ReplicaItem {
	blocks := make([][]wire.ReplicaItem, len(j.order))
	for i, blk := range j.order {
		for _, e := range j.blocks[blk].Extents() {
			blocks[i] = append(blocks[i], wire.ReplicaItem{Blk: blk, Off: e.Off, Data: e.Data})
		}
	}
	return blocks
}

// journalRecords returns how many records the journal took since its
// surrogate last replayed it, for the cutover's atomic done-check (control
// plane, no simulated cost).
func (o *OSD) journalRecords(failed wire.NodeID) int {
	j, ok := o.journals[failed]
	if !ok {
		return 0
	}
	return j.records() - j.fetched
}

// journalPersist charges one sequential append of n payload bytes to the
// journal's circular log (primary surrogate work). The append runs under a
// journal-stage span so its device cost lands in a trace's journal bucket,
// not the generic device one.
func (o *OSD) journalPersist(p *sim.Proc, j *journal, n int64) {
	fin := obs.SpanOn(p, obs.StageJournal, "journal:persist", o.id)
	j.primary += n + 24
	j.log.Append(p, n+24)
	fin()
}

// journalPersistReplica charges a durability copy of a peer surrogate's
// record; kept out of the primary count so JournalBytes reports only
// surrogate load.
func (o *OSD) journalPersistReplica(p *sim.Proc, j *journal, n int64) {
	fin := obs.SpanOn(p, obs.StageJournal, "journal:persist-replica", o.id)
	j.log.Append(p, n+24)
	fin()
}

// append adds one record to the journal's index and numbers it in this
// surrogate's append sequence, with no yield, so index order and seq order
// agree.
func (j *journal) append(blk wire.BlockID, off int64, data []byte) uint64 {
	j.add(blk, off, data)
	j.nextSeq++
	return j.nextSeq
}

// commit makes an appended record durable for its surrogate, this OSD: it
// persists the record to the local journal and replicates it to every
// reachable holder of q in one parallel round. A holder that is down is
// skipped: it narrows the redundancy window, and promotion's union across
// the holders covers an append it missed. Any other holder failure fails
// the commit, and so does a round that reached no holder at all
// (errQuorumUnreachable): acking then would leave the surrogate with the
// only copy. A surrogate that died during its round fails the commit with
// errDegradedGone: its calls fail as node-down whatever the holders' state,
// and its journal is being promoted elsewhere, so the client retries there.
func (o *OSD) commit(p *sim.Proc, failed wire.NodeID, q *quorum, it wire.JournalItem, sum uint32) error {
	o.journalPersist(p, o.journalFor(failed), int64(len(it.Data)))
	var live []wire.NodeID
	for _, h := range q.holders {
		if !o.c.Fabric.Down(h) {
			live = append(live, h)
		}
	}
	var acked int
	err := sim.Parallel(p, "journal-repl", len(live), func(hp *sim.Proc, i int) error {
		h := live[i]
		resp, err := o.Call(hp, h, &wire.JournalReplica{
			Failed: failed, Surrogate: o.id, Seq: it.Seq,
			Blk: it.Blk, Off: it.Off, Data: it.Data, Sum: sum,
		})
		if errors.Is(err, netsim.ErrNodeDown) {
			return nil
		}
		if err := wire.AckErr(resp, err); err != nil {
			return fmt.Errorf("journal replica @%d: %w", h, err)
		}
		o.jrSentMsgs++
		o.jrSentBytes += int64(len(it.Data))
		acked++
		return nil
	})
	switch {
	case o.c.Fabric.Down(o.id):
		return errDegradedGone
	case err != nil:
		return err
	case acked == 0 && len(q.holders) > 0:
		return errQuorumUnreachable
	}
	return nil
}

// handleDegradedUpdate journals one client update for a degraded stripe.
// The append happens atomically with the registration re-check and the
// in-flight registration (no blocking in between), so the cutover's copy
// loop can never miss it; the commit is charged afterwards, covered by the
// in-flight count so a recovery fence waits it out. The seq enters the
// surrogate's acked set only when the commit succeeds. A failed commit
// fails the ack: the client retries under a new seq, and the duplicate
// append is harmless (same bytes at the same offset for both overlay and
// replay).
func (o *OSD) handleDegradedUpdate(p *sim.Proc, v *wire.DegradedUpdate) wire.Msg {
	o.c.waitGate(p, o.id, "fence:gate")
	st := o.c.degraded[v.Failed]
	if st == nil || !st.servesDegraded(o.c, o.id, v.Blk) {
		return &wire.Ack{Err: errDegradedGone}
	}
	o.c.surrOpsInFlight++
	defer o.c.surrOpDone()
	q := st.quorum[o.id]
	it := wire.JournalItem{Seq: o.journalFor(v.Failed).append(v.Blk, v.Off, v.Data), Blk: v.Blk, Off: v.Off, Data: v.Data}
	if err := o.commit(p, v.Failed, q, it, v.Sum); err != nil {
		return &wire.Ack{Err: err}
	}
	q.acked[it.Seq] = true
	return wire.OK
}

// handleDegradedRead serves [Off, Off+Size) of a degraded-stripe block: it
// reads the block's bytes (readDegraded), then overlays the block's merged
// journal extents newest-wins, which keeps degraded reads read-your-writes.
// It waits for neither the window's registration nor its cutover. A
// surviving block needs no journal seed, and a read of a block whose home
// is down waits only until a settle barrier has merged its range
// (readFenced). During the cutover every read goes to a home engine
// that may hold any prefix of the replay, and overlaying the whole journal
// on it gives the final bytes, because a journal extent is an overwrite and
// no update is newer than the journal while the gate is closed. The
// block's journal log is taken before the read yields: the cutover retires
// the route and drops the index once every extent is replayed, and a read
// whose home was read before the last replay landed must still overlay.
func (o *OSD) handleDegradedRead(p *sim.Proc, v *wire.DegradedRead) wire.Msg {
	st := o.c.degraded[v.Failed]
	var fenced func() // the fence:settle span, open once the settle blocks the read
	for st != nil && st.servesDegraded(o.c, o.id, v.Blk) &&
		o.c.readFenced(st, v.Blk, v.Off, v.Off+int64(v.Size)) {
		if fenced == nil {
			fenced = obs.SpanOn(p, obs.StageFence, "fence:settle", o.id)
		}
		p.Sleep(settlePoll)
		st = o.c.degraded[v.Failed]
	}
	if fenced != nil {
		fenced()
	}
	if st == nil || !st.servesDegraded(o.c, o.id, v.Blk) {
		return &wire.ReadResp{Err: errDegradedGone}
	}
	jlog := o.journalFor(v.Failed).blocks[v.Blk]
	buf, err := o.readDegraded(p, v)
	if err != nil {
		return &wire.ReadResp{Err: err}
	}
	if jlog != nil {
		jlog.Overlay(v.Off, buf)
	}
	// The checksum covers the post-overlay bytes the client will consume.
	return &wire.ReadResp{Data: buf, Sum: wire.Checksum(buf)}
}

// readDegraded reads the bytes a degraded read overlays its journal on.
// One rule holds whichever window routed the read: a block whose current
// home (placement, remaps included) is down is reconstructed from the raw
// shards the settle made consistent. That is a lost block whose rebuild
// has not been acked, of this window or of another one whose dead node
// the stripe also holds, or a rebuilt block whose new home died since. If
// the home is live by the time the reconstruction returns, the block's
// rebuild was acked meanwhile and the cutover may have begun replaying
// into those shards, so the reconstruction is dropped. Every other read
// forwards to the block's home and reads it through the engine.
func (o *OSD) readDegraded(p *sim.Proc, v *wire.DegradedRead) ([]byte, error) {
	s := v.Blk.StripeID()
	homeDown := func() bool { return o.c.Fabric.Down(o.c.Placement(s)[v.Blk.Index]) }
	if homeDown() {
		buf, err := o.reconstructRangeHedged(p, v.Blk, v.Off, int64(v.Size))
		if err != nil || homeDown() {
			return buf, err
		}
	}
	home := o.c.Placement(s)[v.Blk.Index]
	resp, err := o.Call(p, home, &wire.ReadBlock{
		Blk: v.Blk, Off: v.Off, Size: v.Size,
		Epoch: o.c.MDS.authEpochOf(s),
	})
	if err != nil {
		return nil, err // a transport error goes back as is
	}
	buf, err := o.c.readData(resp, nil)
	if err != nil {
		return nil, fmt.Errorf("degraded read fwd %v: %w", v.Blk, err)
	}
	return buf, nil
}

// reconstructRange rebuilds [off, off+size) of a lost block from the same
// range of K surviving shards — RS decoding is bytewise, so a degraded read
// never moves more than K× the requested bytes. alt selects the alternate
// survivor set (hedged second leg).
func (o *OSD) reconstructRange(p *sim.Proc, blk wire.BlockID, off, size int64, alt bool) ([]byte, error) {
	shards, err := o.readSurvivingShards(p, blk, off, size, alt)
	if err != nil {
		return nil, err
	}
	if err := o.c.Code.ReconstructSome(shards, []int{int(blk.Index)}); err != nil {
		return nil, err
	}
	return shards[blk.Index], nil
}

// hedgeResult is one leg's outcome in a hedged reconstruction race.
type hedgeResult struct {
	buf   []byte
	err   error
	hedge bool
}

// reconstructRangeHedged is reconstructRange with straggler hedging: if the
// primary K-shard fan-in has not completed within Config.HedgeDelay, a
// second reconstruction fires against the alternate survivor set (the last
// K live shards instead of the first) and the first valid result wins. The
// losing leg's late result lands in an unconsumed queue — harmless, its
// reads were charged to the fabric like any raced RPC. With HedgeDelay 0
// this is plain reconstructRange.
func (o *OSD) reconstructRangeHedged(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	delay := o.c.Cfg.HedgeDelay
	if delay <= 0 {
		return o.reconstructRange(p, blk, off, size, false)
	}
	results := sim.NewQueue[hedgeResult](o.c.Env)
	done := false  // a winner was taken; the timer must not fire
	fired := false // the hedge leg launched (a second result will arrive)
	pp := o.c.Env.Go("degraded-hedge-primary", func(hp *sim.Proc) {
		buf, err := o.reconstructRange(hp, blk, off, size, false)
		results.Put(hedgeResult{buf: buf, err: err})
	})
	obs.Inherit(pp, p)
	hp2 := o.c.Env.Go("degraded-hedge-timer", func(hp *sim.Proc) {
		hp.Sleep(delay)
		if done {
			return
		}
		fired = true
		o.c.hedgeFired++
		buf, err := o.reconstructRange(hp, blk, off, size, true)
		results.Put(hedgeResult{buf: buf, err: err, hedge: true})
	})
	obs.Inherit(hp2, p)
	first, _ := results.Get(p)
	if first.err == nil {
		done = true
		if first.hedge {
			o.c.hedgeWins++
		}
		return first.buf, nil
	}
	// The first leg failed. If the other leg is still in flight (the hedge
	// fired, or the failure WAS the hedge so the primary is outstanding),
	// its result may yet be good — wait for it.
	if fired || first.hedge {
		second, _ := results.Get(p)
		done = true
		if second.err == nil {
			if second.hedge {
				o.c.hedgeWins++
			}
			return second.buf, nil
		}
		return nil, first.err
	}
	done = true
	return nil, first.err
}

// handleJournalFetch serves the read-repair fetch: it returns the
// sequenced durability copies held for v.Surrogate with Seq > FromSeq, in
// arrival order, leaving them in place (promotion unions several holders'
// sets by seq). Those copies serve no read and have no index, so they come
// off the device log.
func (o *OSD) handleJournalFetch(p *sim.Proc, v *wire.JournalFetch) wire.Msg {
	resp := &wire.JournalFetchResp{}
	j, ok := o.journals[v.Failed]
	if !ok {
		return resp
	}
	var total int64
	for _, it := range j.repl[v.Surrogate] {
		if it.Seq > v.FromSeq {
			resp.Items = append(resp.Items, it)
			total += int64(len(it.Data))
		}
	}
	if total > 0 {
		j.log.Read(p, 0, total)
	}
	return resp
}

// handleJournalReplay replays this OSD's own journal for the failed node:
// every block's merged extents go from the journal's memory index through
// land, to the block's current home or, when a member of its stripe is
// down, to where land's rules keep them, and the answer counts the extents
// that landed once every one is acked or kept. A log whose memory index
// serves reads hands its extents over from that index, so the replay reads
// nothing off the device (the on-disk journal is only their durability
// copy), and a block rebuilt on this OSD replays over loopback. Blocks
// replay in parallel, each block's extents one at a time in offset order:
// a block's extents do not overlap, so their order cannot change the
// result, and replaying them serially keeps same-block concurrency out of
// the engines' replay path. The index keeps the extents, so degraded reads
// overlay them until the route retires, and a journal with no record since
// its last successful replay replays nothing: a failed one leaves the
// journal unreplayed, so a promotion of its dead surrogate is waited for
// (cutover) and another replay repeats it whole. The recovery cutover
// sends this under the closed gate, so nothing lands behind it.
func (o *OSD) handleJournalReplay(p *sim.Proc, v *wire.JournalReplay) wire.Msg {
	resp := &wire.JournalReplayResp{}
	j, ok := o.journals[v.Failed]
	if !ok || j.records() == j.fetched {
		return resp
	}
	prev := j.fetched
	j.fetched = j.records()
	blocks := j.extents()
	resp.Err = sim.Parallel(p, "replay", len(blocks), func(hp *sim.Proc, i int) error {
		n, b, err := o.c.land(hp, o.id, blocks[i])
		resp.Extents += uint32(n)
		resp.Bytes += b
		return err
	})
	if resp.Err != nil {
		j.fetched = prev
	}
	return resp
}

// settlePoll is how often a degraded read fenced by readFenced looks
// again. The merges it waits for finish in other procs on other OSDs, none
// of which signals the surrogate; a fenced read leaves at most this long
// after its range settles, and the few fenced reads of a window cost one
// check each per interval.
const settlePoll = 100 * time.Microsecond

// settleFenced reports whether a reconstruction of [off, end) of stripe s
// must still wait for the window's settle barrier: the barrier runs, and a
// live engine holds or is merging state of s overlapping the range. RS
// coding works column by column, so a range no engine reports is final on
// every raw shard, and stays so: no update reaches a degraded stripe's
// engines once its route is published, and what the barrier still merges
// elsewhere in the stripe touches other bytes.
func (c *Cluster) settleFenced(st *degradedState, s wire.StripeID, off, end int64) bool {
	if !st.settling {
		return false
	}
	for _, osd := range c.OSDs {
		if !c.Fabric.Down(osd.id) && osd.engine.Pending(update.Bytes(s, off, end)) {
			return true
		}
	}
	return false
}

// readFenced reports whether a degraded read routed by window st must
// still wait before it reconstructs [off, end) of blk: blk's home is down,
// and the settle of the home's window or of st has that range of the
// stripe left (settleFenced). A read whose home is live forwards to it and
// is never fenced.
func (c *Cluster) readFenced(st *degradedState, blk wire.BlockID, off, end int64) bool {
	s := blk.StripeID()
	home := c.Placement(s)[blk.Index]
	if !c.Fabric.Down(home) {
		return false
	}
	if w := c.degraded[home]; w != nil && w != st && c.settleFenced(w, s, off, end) {
		return true
	}
	return c.settleFenced(st, s, off, end)
}

// waitSettled blocks p until stripe s of window st has settled: no live
// engine holds state of any of its bytes (settleFenced over a whole block),
// or the window's settle barrier has ended. It polls every settlePoll, as a
// fenced degraded read does, and returns the barrier's error if it failed.
func (c *Cluster) waitSettled(p *sim.Proc, st *degradedState, s wire.StripeID) error {
	for c.settleFenced(st, s, 0, c.Cfg.BlockSize) {
		p.Sleep(settlePoll)
	}
	return st.settleErr
}

// SettleAll brings every live OSD's raw stores to stripe consistency with
// minimal merging, repeating rounds until a full round starts with nothing
// left to settle: the consistency barrier recovery runs before
// reconstruction starts. Its scope is update.Failed(failed): with failed !=
// 0 it covers only the state touching the failed node's stripes, overlay
// included (their raw shards feed reconstruction), and converges while
// updates to other stripes flow; with failed == 0 it covers every stripe
// except pure overlay and needs the update gate closed.
func (c *Cluster) SettleAll(p *sim.Proc, via *Client, failed wire.NodeID) error {
	return c.barrier(p, via, "settle", &wire.Settle{Failed: failed}, update.Failed(failed))
}

// resetStripeState clears engine-side cross-update baselines (PARIX's
// "original already shipped" coverage) for every degraded stripe after its
// lost block was rebuilt on a fresh OSD. Control-plane metadata only; no
// simulated cost.
func (c *Cluster) resetStripeState(lost []wire.BlockID) {
	seen := make(map[wire.StripeID]bool)
	for _, blk := range lost {
		s := blk.StripeID()
		if seen[s] {
			continue
		}
		seen[s] = true
		osds := c.Placement(s)
		for i := 0; i < c.Cfg.K; i++ {
			if c.Fabric.Down(osds[i]) {
				continue
			}
			if r, ok := c.OSDByID(osds[i]).engine.(update.StripeResetter); ok {
				r.ResetStripe(s)
			}
		}
	}
}
