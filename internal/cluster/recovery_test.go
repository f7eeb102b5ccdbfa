package cluster

// Error-path coverage for cluster.Recover: failures beyond the code's
// tolerance, recovery with nothing to replay, and recovery racing an
// in-flight cluster-wide drain.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// TestRecoverBeyondTolerance: with M=2 and two nodes already dead, a third
// failure must surface a reconstruction error (some stripe has fewer than K
// surviving shards), not corrupt state silently.
func TestRecoverBeyondTolerance(t *testing.T) {
	cfg := testConfig("fo") // no logs: drains are no-ops with nodes down
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		content := make([]byte, 4*c.StripeWidth())
		rand.New(rand.NewSource(31)).Read(content)
		ino, _ := cl.Create(p, "f", int64(len(content)))
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		// Kill two nodes outright (no recovery), then try to recover a third.
		c.Fabric.SetDown(wire.NodeID(1), true)
		c.Fabric.SetDown(wire.NodeID(2), true)
		_, err := c.Recover(p, wire.NodeID(3), 4, RecoverDrainFirst, cl)
		if err == nil {
			t.Fatal("recovering a third failure under M=2 succeeded")
		}
		// The shortfall can surface either at target selection (the PG has
		// fewer live OSDs than the stripe width) or, when the placement map
		// can still seat the stripe, at reconstruction (fewer than K
		// surviving shards).
		if !strings.Contains(err.Error(), "surviving shards") &&
			!strings.Contains(err.Error(), "live OSDs") {
			t.Fatalf("unexpected error: %v", err)
		}
		// The gate must have been reopened on the error path.
		if c.gateClosed {
			t.Fatal("gate left closed after failed recovery")
		}
	})
}

// TestRecoverZeroLogs: recovery in log-replay mode right after a full drain
// has nothing to replay — the report must show zero replayed items and the
// cluster must still scrub clean and serve exact content.
func TestRecoverZeroLogs(t *testing.T) {
	cfg := testConfig("tsue")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(37))
		content := make([]byte, 4*c.StripeWidth())
		rng.Read(content)
		ino, _ := cl.Create(p, "f", int64(len(content)))
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			off := int64(rng.Intn(len(content) - 2048))
			buf := make([]byte, 1+rng.Intn(2048))
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Fatal(err)
			}
			copy(content[off:], buf)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Recover(p, wire.NodeID(4), 4, RecoverLogReplay, cl)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ReplayedItems != 0 || rep.ReplayedBytes != 0 {
			t.Fatalf("replayed %d items / %d bytes after a full drain, want 0",
				rep.ReplayedItems, rep.ReplayedBytes)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(p, ino, 0, int64(len(content)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch after zero-log recovery")
		}
	})
}

// TestCutoverReplaysBlocksConcurrently: the journal cutover replays each
// block's merged extents and distinct blocks in parallel. Three
// overlapping updates to the failed node's block and one update each to
// the stripe's three other data blocks are journaled on the surrogate;
// after the cutover and a drain every byte reads back as last written, the
// stripe scrubs clean, every record is counted, the three overlapping
// records replay as one extent, and ReplayUpdates of distinct blocks
// overlap in sim time.
func TestCutoverReplaysBlocksConcurrently(t *testing.T) {
	c := MustNew(testConfig("tsue"))
	defer c.Env.Close()
	type replay struct {
		blk        wire.BlockID
		start, end time.Duration
	}
	var replays []replay
	for _, o := range c.OSDs {
		h := o.handle
		if err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			ru, ok := m.(*wire.ReplayUpdate)
			if !ok {
				return h(p, from, m)
			}
			start := p.Now()
			resp := h(p, from, m)
			replays = append(replays, replay{ru.Blk, start, p.Now()})
			return resp
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient()
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(43))
		content := make([]byte, c.StripeWidth())
		rng.Read(content)
		ino, _ := cl.Create(p, "f", int64(len(content)))
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		// Nothing unrecycled: the journal holds only what is written below.
		if err := c.DrainAll(p, cl); err != nil {
			t.Error(err)
			return
		}
		victim := c.Placement(wire.StripeID{Ino: ino})[0]
		if err := c.BeginDegraded(p, victim, cl); err != nil {
			t.Error(err)
			return
		}
		bs := c.Cfg.BlockSize
		writes := [][2]int64{{100, 2000}, {500, 2000}, {1000, 600}} // block 0, overlapping
		for i := int64(1); i < int64(c.Cfg.K); i++ {
			writes = append(writes, [2]int64{i*bs + 300, 1000})
		}
		for _, w := range writes {
			buf := make([]byte, w[1])
			rng.Read(buf)
			if err := cl.Update(p, ino, w[0], buf); err != nil {
				t.Error(err)
				return
			}
			copy(content[w[0]:], buf)
		}
		rep, err := c.Recover(p, victim, 2, RecoverInterleaved, cl)
		if err != nil {
			t.Error(err)
			return
		}
		if rep.ReplayedRecords != len(writes) {
			t.Errorf("replayed %d records, want %d", rep.ReplayedRecords, len(writes))
		}
		// Block 0's three records merge into [100, 2500); every other block
		// has one record.
		if want := c.Cfg.K; rep.ReplayedItems != want {
			t.Errorf("replayed %d extents, want %d", rep.ReplayedItems, want)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err := cl.Read(p, ino, 0, int64(len(content)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content after the cutover differs from the last writes")
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done {
		if !t.Failed() {
			t.Fatal("deadlock")
		}
		return
	}
	overlap := false
	for i, a := range replays {
		for _, b := range replays[i+1:] {
			if a.blk != b.blk && a.start < b.end && b.start < a.end {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Errorf("no two blocks' ReplayUpdates overlapped in sim time: %v", replays)
	}
}

// journalOwners maps every block journaled for failed to the surrogate whose
// journal holds it. It fails the test when a block sits in two surrogates'
// journals, or in a journal other than its PG's surrogate's: the concurrent
// cutover replays each journal on its own, so that disjointness is what
// keeps one block's records in order.
func journalOwners(t *testing.T, c *Cluster, st *degradedState) map[wire.BlockID]wire.NodeID {
	t.Helper()
	owner := make(map[wire.BlockID]wire.NodeID)
	for _, sur := range st.surrogates {
		j, ok := c.OSDByID(sur).journals[st.failed]
		if !ok {
			continue
		}
		for _, blk := range j.order {
			if o, ok := owner[blk]; ok && o != sur {
				t.Errorf("block %v journaled on surrogates %d and %d", blk, o, sur)
			}
			if want := st.surr[c.PG(blk.StripeID())]; want != sur {
				t.Errorf("block %v journaled on %d, its PG's surrogate is %d", blk, sur, want)
			}
			owner[blk] = sur
		}
	}
	return owner
}

// journalExtents counts the merged extents in sur's journal for failed.
func journalExtents(c *Cluster, sur, failed wire.NodeID) int {
	j, ok := c.OSDByID(sur).journals[failed]
	if !ok {
		return 0
	}
	n := 0
	for _, blk := range j.order {
		n += len(j.blocks[blk].Extents())
	}
	return n
}

// TestCutoverReplaysSurrogatesConcurrently: the cutover replays every
// surrogate's journal at once. A degraded window journals three
// overlapping updates to one lost block per surrogate, and then one
// surrogate dies and its journal is promoted. No block may sit in two
// surrogates' journals, before or after the promotion. The victim's
// recovery must count every journal record, replay each block's three
// records as one extent, and ReplayUpdates of blocks on different
// surrogates must overlap in sim time. Once the dead
// surrogate is recovered too, every byte reads back as last written and
// the cluster scrubs clean.
func TestCutoverReplaysSurrogatesConcurrently(t *testing.T) {
	c := MustNew(degradedConfig("tsue"))
	defer c.Env.Close()
	type replay struct {
		blk        wire.BlockID
		start, end time.Duration
	}
	var replays []replay
	recording := false
	for _, o := range c.OSDs {
		h := o.handle
		if err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			ru, ok := m.(*wire.ReplayUpdate)
			if !ok || !recording {
				return h(p, from, m)
			}
			start := p.Now()
			resp := h(p, from, m)
			replays = append(replays, replay{ru.Blk, start, p.Now()})
			return resp
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient()
	admin := c.NewClient()
	var owner map[wire.BlockID]wire.NodeID
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(47))
		fileSize := 8 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		// Nothing unrecycled: the journals hold only what is written below.
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		victim := wire.NodeID(3)
		if err := c.BeginDegraded(p, victim, admin); err != nil {
			t.Error(err)
			return
		}
		st := c.degraded[victim]
		// One lost data block per surrogate, in block order. Lost blocks are
		// the only ranges still served once a second node is down.
		var lost []wire.BlockID
		for _, blk := range c.lostBlocks(victim) {
			if int(blk.Index) < c.Cfg.K {
				lost = append(lost, blk)
			}
		}
		picked := make(map[wire.NodeID]bool)
		for _, blk := range lost {
			sur := st.surr[c.PG(blk.StripeID())]
			if picked[sur] {
				continue
			}
			picked[sur] = true
			base := int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize
			for _, w := range [][2]int64{{100, 2000}, {500, 2000}, {1000, 600}} {
				buf := make([]byte, w[1])
				rng.Read(buf)
				if err := cl.Update(p, ino, base+w[0], buf); err != nil {
					t.Error(err)
					return
				}
				copy(content[base+w[0]:], buf)
			}
		}
		if len(picked) < 3 {
			t.Errorf("lost data blocks on %d surrogates, want at least 3", len(picked))
			return
		}
		journalOwners(t, c, st)
		dead := st.surrogates[0]
		if _, err := c.Kill(p, dead, admin); err != nil {
			t.Errorf("kill surrogate %d: %v", dead, err)
			return
		}
		owner = journalOwners(t, c, st)
		journaled, extents := 0, 0
		for _, sur := range st.surrogates {
			journaled += c.OSDByID(sur).journalRecords(victim)
			extents += journalExtents(c, sur, victim)
		}
		if want := len(picked); extents != want {
			t.Errorf("journals hold %d extents, want one per written block (%d)", extents, want)
		}
		recording = true
		rep, err := c.Recover(p, victim, 4, RecoverInterleaved, admin)
		recording = false
		if err != nil {
			t.Error(err)
			return
		}
		if rep.ReplayedRecords != journaled {
			t.Errorf("replayed %d records, want the %d journal records", rep.ReplayedRecords, journaled)
		}
		if rep.ReplayedItems != extents {
			t.Errorf("replayed %d extents, want the journals' %d", rep.ReplayedItems, extents)
		}
		if _, err := c.Recover(p, dead, 4, RecoverInterleaved, admin); err != nil {
			t.Errorf("recover dead surrogate: %v", err)
			return
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content after the cutover differs from the last writes")
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done {
		if !t.Failed() {
			t.Fatal("deadlock")
		}
		return
	}
	surrogates := make(map[wire.NodeID]bool)
	for _, sur := range owner {
		surrogates[sur] = true
	}
	if len(surrogates) < 2 {
		t.Fatalf("journals on %d surrogate(s) after the promotion, want at least 2", len(surrogates))
	}
	overlap := false
	for i, a := range replays {
		for _, b := range replays[i+1:] {
			if owner[a.blk] != owner[b.blk] && a.start < b.end && b.start < a.end {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Errorf("no ReplayUpdates of blocks on different surrogates overlapped in sim time: %v", replays)
	}
}

// TestCutoverReplaysJournalOnSurrogate: at the cutover each surrogate
// replays its own journal from its memory index, and the recovery's admin
// client only asks for it. A degraded window journals overlapping updates to
// one lost data block on each of several surrogates. Every ReplayUpdate
// must come from the surrogate of its block, which sends each extent of its
// index exactly once, over loopback when the block was rebuilt on that
// surrogate; the index and the route stay whole until every replay is
// acked; no surrogate reads its device while it replays; and the admin
// client's NIC carries only header-sized messages: its byte counters grow by
// the sizes of payload-free requests and responses. The cluster then scrubs
// clean and every byte reads back as last written. A read-repair fetch of a
// holder's durability copies, which have no index, still reads the
// holder's device.
func TestCutoverReplaysJournalOnSurrogate(t *testing.T) {
	c := MustNew(degradedConfig("tsue"))
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	victim := wire.NodeID(3)
	type extent struct {
		sur, to wire.NodeID
		blk     wire.BlockID
		off     int64
		n       int
	}
	var (
		st       *degradedState
		lost     []wire.BlockID
		want     = make(map[extent]int) // the indexes' extents, to 0
		sent     = make(map[extent]int)
		extents  = make(map[wire.NodeID]int)
		armed    bool
		adminMsg []wire.Msg // what the admin sent and received while armed
		requests int        // JournalReplay requests, all from the admin
		bad      []string
	)
	for _, o := range c.OSDs {
		h := o.handle
		if err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			switch v := m.(type) {
			case *wire.JournalReplay:
				requests++
				before := o.dev.Stats()
				resp := h(p, from, m)
				if after := o.dev.Stats(); after.ReadOps != before.ReadOps || after.ReadBytes != before.ReadBytes {
					bad = append(bad, fmt.Sprintf("replay on surrogate %d read %d ops / %d bytes off its device",
						o.id, after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes))
				}
				adminMsg = append(adminMsg, m, resp)
				return resp
			case *wire.ReplayUpdate:
				if c.degraded[victim] != st {
					bad = append(bad, fmt.Sprintf("replay of %v after the route retired", v.Blk))
				}
				for sur, n := range extents {
					if got := journalExtents(c, sur, victim); got != n {
						bad = append(bad, fmt.Sprintf("surrogate %d's index held %d extents during the replay, want %d", sur, got, n))
					}
				}
				sent[extent{from, o.id, v.Blk, v.Off, len(v.Data)}]++
			}
			resp := h(p, from, m)
			if armed && from == admin.id {
				adminMsg = append(adminMsg, m, resp)
			}
			return resp
		}); err != nil {
			t.Fatal(err)
		}
	}
	var adminGrew int64
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(71))
		fileSize := 8 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		// Nothing unrecycled: the journals hold only what is written below.
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if err := c.BeginDegraded(p, victim, admin); err != nil {
			t.Error(err)
			return
		}
		st = c.degraded[victim]
		lost = c.lostBlocks(victim)
		picked := make(map[wire.NodeID]bool)
		for _, blk := range lost {
			sur := st.surr[c.PG(blk.StripeID())]
			if int(blk.Index) >= c.Cfg.K || picked[sur] {
				continue
			}
			picked[sur] = true
			base := int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize
			for _, w := range [][2]int64{{100, 2000}, {500, 2000}, {4000, 600}} {
				buf := make([]byte, w[1])
				rng.Read(buf)
				if err := cl.Update(p, ino, base+w[0], buf); err != nil {
					t.Error(err)
					return
				}
				copy(content[base+w[0]:], buf)
			}
		}
		if len(picked) < 2 {
			t.Errorf("lost data blocks on %d surrogates, want at least 2", len(picked))
			return
		}
		for _, sur := range st.surrogates {
			extents[sur] = journalExtents(c, sur, victim)
			for _, run := range c.OSDByID(sur).journalFor(victim).extents() {
				for _, it := range run {
					want[extent{sur: sur, blk: it.Blk, off: it.Off, n: len(it.Data)}] = 1
				}
			}
		}
		// A read-repair fetch returns a holder's durability copies, which
		// only the device log holds.
		sur := st.surrogates[0]
		holder := c.JournalHoldersOf(victim, sur)[0]
		before := c.OSDByID(holder).dev.Stats()
		resp, err := c.Fabric.Call(p, admin.id, holder, &wire.JournalFetch{Failed: victim, Surrogate: sur})
		if err != nil {
			t.Error(err)
			return
		}
		var held int64
		for _, it := range resp.(*wire.JournalFetchResp).Items {
			held += int64(len(it.Data))
		}
		if got := c.OSDByID(holder).dev.Stats().ReadBytes - before.ReadBytes; held == 0 || got < held {
			t.Errorf("read-repair fetch of %d held bytes read %d bytes off holder %d's device", held, got, holder)
		}
		nic := c.Fabric.NodeStats(admin.id)
		armed = true
		_, err = c.Recover(p, victim, 4, RecoverInterleaved, admin)
		armed = false
		after := c.Fabric.NodeStats(admin.id)
		adminGrew = after.BytesSent + after.BytesRecv - nic.BytesSent - nic.BytesRecv
		if err != nil {
			t.Error(err)
			return
		}
		for _, sur := range st.surrogates {
			if n := journalExtents(c, sur, victim); n != 0 {
				t.Errorf("surrogate %d's index kept %d extents after the route retired", sur, n)
			}
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content after the cutover differs from the last writes")
		}
		done = true
	})
	c.Env.RunTest(t)
	for _, b := range bad {
		t.Error(b)
	}
	if !done {
		if !t.Failed() {
			t.Fatal("deadlock")
		}
		return
	}
	loopback := 0
	for e, n := range sent {
		home := c.Placement(e.blk.StripeID())[e.blk.Index]
		if e.to != home {
			t.Errorf("extent %v+%d replayed at %d, its home is %d", e.blk, e.off, e.to, home)
		}
		if e.to == e.sur {
			loopback += n
		} else if slices.Contains(lost, e.blk) && st.surr[c.PG(e.blk.StripeID())] == home {
			t.Errorf("extent %v+%d of a block rebuilt on its surrogate %d came from %d", e.blk, e.off, home, e.sur)
		}
		e.to = 0
		want[e] -= n
	}
	for e, n := range want {
		if n != 0 {
			t.Errorf("surrogate %d replayed extent %v+%d (%d bytes) %d times, want once", e.sur, e.blk, e.off, e.n, 1-n)
		}
	}
	if loopback == 0 {
		t.Error("no extent replayed over loopback, want every extent of a block rebuilt on its surrogate")
	}
	if requests < 2 {
		t.Errorf("%d JournalReplay requests, want one per journaling surrogate (at least 2)", requests)
	}
	var sizes, journal int64
	for _, m := range adminMsg {
		sizes += wire.SizeOf(m)
		if n := len(wire.Payload(m)); n != 0 {
			t.Errorf("the admin client's %s carried a %d-byte payload", wire.Name(m), n)
		}
	}
	for e := range want {
		journal += int64(e.n)
	}
	if adminGrew != sizes {
		t.Errorf("the admin client's NIC moved %d bytes during the recovery, its %d messages %d", adminGrew, len(adminMsg), sizes)
	}
	if adminGrew >= journal {
		t.Errorf("the admin client's NIC moved %d bytes, the journals held %d", adminGrew, journal)
	}
}

// TestRecoverRacesDrainAll: a cluster-wide drain already in flight when a
// node fails and recovery starts must either complete or step aside
// (nodes dying mid-round are not drain errors); both operations finish and
// the cluster verifies byte-for-byte.
func TestRecoverRacesDrainAll(t *testing.T) {
	cfg := testConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	drained, recovered, verified := false, false, false
	c.Env.Go("drainer", func(p *sim.Proc) {
		// Let the workload build log state, then drain concurrently with
		// the recovery below.
		p.Sleep(2 * time.Millisecond)
		if err := c.DrainAll(p, admin); err != nil {
			t.Errorf("racing drain: %v", err)
			return
		}
		drained = true
	})
	c.Env.Go("workload", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(41))
		content := make([]byte, 4*c.StripeWidth())
		rng.Read(content)
		ino, _ := cl.Create(p, "f", int64(len(content)))
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			off := int64(rng.Intn(len(content) - 2048))
			buf := make([]byte, 1+rng.Intn(2048))
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Error(err)
				return
			}
			copy(content[off:], buf)
		}
		rep, err := c.Recover(p, wire.NodeID(5), 4, RecoverInterleaved, cl)
		if err != nil {
			t.Errorf("recover racing drain: %v", err)
			return
		}
		if rep.Blocks == 0 {
			t.Error("nothing recovered")
			return
		}
		recovered = true
		if err := c.DrainAll(p, cl); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err := cl.Read(p, ino, 0, int64(len(content)))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content mismatch after recovery racing drain")
			return
		}
		verified = true
	})
	c.Env.RunTest(t)
	if t.Failed() {
		return
	}
	if !drained || !recovered || !verified {
		t.Fatalf("deadlock: drained=%v recovered=%v verified=%v", drained, recovered, verified)
	}
}

// TestRecoverPreOpenedWindow covers the recovery branches a window opened
// ahead of time by BeginDegraded takes: drain-first must refuse it and
// leave it registered (draining would drop its journal), and log-replay
// must fence, rebuild and cut over without registering or settling again,
// replaying the updates journaled in the window byte-exact.
func TestRecoverPreOpenedWindow(t *testing.T) {
	for _, engine := range update.Names() {
		t.Run(engine, func(t *testing.T) {
			run(t, degradedConfig(engine), func(p *sim.Proc, c *Cluster, cl *Client) {
				rng := rand.New(rand.NewSource(53))
				content := make([]byte, 6*c.StripeWidth())
				rng.Read(content)
				ino, _ := cl.Create(p, "f", int64(len(content)))
				if err := cl.WriteFile(p, ino, content); err != nil {
					t.Fatal(err)
				}
				updates := func(n int) {
					for i := 0; i < n; i++ {
						off := int64(rng.Intn(len(content) - 4096))
						buf := make([]byte, 1+rng.Intn(4096))
						rng.Read(buf)
						if err := cl.Update(p, ino, off, buf); err != nil {
							t.Fatal(err)
						}
						copy(content[off:], buf)
					}
				}
				updates(60)
				victim := wire.NodeID(3)
				if err := c.BeginDegraded(p, victim, cl); err != nil {
					t.Fatal(err)
				}
				updates(60)
				if _, err := c.Recover(p, victim, 2, RecoverDrainFirst, cl); err == nil || !strings.Contains(err.Error(), "open degraded window") {
					t.Fatalf("drain-first on an open window: err %v, want its refusal", err)
				}
				if c.degraded[victim] == nil || c.gateClosed {
					t.Fatalf("refused drain-first left registered=%v gate closed=%v, want the window registered and the gate open",
						c.degraded[victim] != nil, c.gateClosed)
				}
				rep, err := c.Recover(p, victim, 2, RecoverLogReplay, cl)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Blocks == 0 || rep.ReplayedItems == 0 {
					t.Fatalf("log-replay of the open window rebuilt %d blocks and replayed %d items, want both > 0", rep.Blocks, rep.ReplayedItems)
				}
				if c.degraded[victim] != nil {
					t.Fatal("window still registered after log-replay recovery")
				}
				if err := c.DrainAll(p, cl); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Scrub(); err != nil {
					t.Fatalf("scrub: %v", err)
				}
				got, err := cl.Read(p, ino, 0, int64(len(content)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("content after log-replay recovery of the open window differs from the last writes")
				}
				t.Logf("rebuilt %d blocks, replayed %d items", rep.Blocks, rep.ReplayedItems)
			})
		})
	}
}
