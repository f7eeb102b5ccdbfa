package cluster

// Error-path coverage for cluster.Recover: failures beyond the code's
// tolerance, recovery with nothing to replay, and recovery racing an
// in-flight cluster-wide drain.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tsue/internal/sim"
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
// block's records in journal order and distinct blocks in parallel. Three
// overlapping updates to the failed node's block and one update each to
// the stripe's three other data blocks are journaled on the surrogate;
// after the cutover and a drain every byte reads back as last written, the
// stripe scrubs clean, every record is counted, and ReplayUpdates of
// distinct blocks overlap in sim time.
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
		if rep.ReplayedItems != len(writes) {
			t.Errorf("replayed %d items, want %d", rep.ReplayedItems, len(writes))
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
	c.Env.Run(0)
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
	c.Env.Run(0)
	if t.Failed() {
		return
	}
	if !drained || !recovered || !verified {
		t.Fatalf("deadlock: drained=%v recovered=%v verified=%v", drained, recovered, verified)
	}
}
