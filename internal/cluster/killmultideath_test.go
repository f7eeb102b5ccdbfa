package cluster

// Any-m-deaths journal resolution: with RS(K, M) the degraded-update
// journal is quorum-replicated on min(M, live-1) holders, so ANY m ≤ M
// concurrent deaths inside a degraded window — the failed node, the
// journal-holding surrogate, and a quorum holder, in any interleaving
// with the client's acked appends — must resolve byte-exact through
// promotion and recovery. This pins the PR 5 gap closed: the old single
// best-effort replica stranded acked updates whenever the recorded holder
// died before the surrogate did.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// multiDeathConfig is degradedConfig with an RS(3,3) scheme on 9 OSDs:
// three parities buy a death budget of three, so the full
// failed+holder+surrogate scenario stays byte-exact verifiable (every
// stripe keeps ≥ K live shards and every acked append a live copy).
func multiDeathConfig(engine string) Config {
	cfg := degradedConfig(engine)
	cfg.OSDs = 9
	cfg.K, cfg.M = 3, 3
	return cfg
}

// multiDeathRun parameterizes one any-m-deaths run. The appends split into
// three batches around the deaths: a before the holder dies, b between
// holder death and surrogate death, c after the surrogate's promotion.
type multiDeathRun struct {
	engine  string
	m       int // deaths: 1 = failed only, 2 = +surrogate, 3 = +holder
	a, b, c int
	seed    int64
}

// runMultiDeath drives one scenario end to end: open a degraded window
// for the failed node, inject up to m-1 further deaths at the configured
// points between acked degraded appends, then recover every dead node and
// verify drain + scrub + byte-exact read-back.
func runMultiDeath(t *testing.T, r multiDeathRun) {
	t.Helper()
	cfg := multiDeathConfig(r.engine)
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(r.seed))
		fileSize := 3 * c.StripeWidth()
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
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		failed := wire.NodeID(3)
		if err := c.BeginDegraded(p, failed, admin); err != nil {
			t.Errorf("begin degraded: %v", err)
			return
		}
		st := c.degraded[failed]
		if r.a > 0 && !degradedStripeOps(t, p, c, cl, st, ino, content, rng, r.a) {
			return
		}
		var surr, holder wire.NodeID
		if r.m >= 2 {
			if surr = busiestSurrogate(c, st); surr == 0 {
				surr = st.surrogates[0]
			}
			if r.m >= 3 {
				holders := c.JournalHoldersOf(failed, surr)
				if len(holders) < 2 {
					t.Fatalf("expected ≥2 quorum holders for m=3, got %v", holders)
				}
				holder = holders[0]
				c.Fabric.SetDown(holder, true)
			}
			if r.b > 0 && !degradedStripeOps(t, p, c, cl, st, ino, content, rng, r.b) {
				return
			}
			journaled := c.OSDByID(surr).journalRecords(failed)
			krep, err := c.Kill(p, surr, admin)
			if err != nil {
				t.Errorf("kill surrogate %d: %v", surr, err)
				return
			}
			if journaled > 0 && krep.PromotedJournals == 0 {
				t.Error("surrogate died holding journal items but promoted nothing")
				return
			}
		}
		if r.c > 0 && !degradedStripeOps(t, p, c, cl, st, ino, content, rng, r.c) {
			return
		}
		if r.a+r.b+r.c > 0 {
			sent, _, held, _ := c.JournalQuorumStats()
			if sent == 0 || held == 0 {
				t.Errorf("acked degraded appends left no quorum traffic (sent=%d held=%d): zero-copy acks", sent, held)
				return
			}
		}
		// Recovery order matters: cutover replay drives full engine writes
		// across each replayed stripe, and the synchronous-parity engines
		// (pl/plr/parix/cord) need every stripe member reachable. So the
		// journal-less casualties — whose own windows replay nothing —
		// rebuild first, and the window owner replays last onto fully-live
		// stripes.
		if holder != 0 {
			if _, err := c.Recover(p, holder, 2, RecoverInterleaved, admin); err != nil {
				t.Errorf("recover dead holder: %v", err)
				return
			}
		}
		if surr != 0 {
			if _, err := c.Recover(p, surr, 2, RecoverInterleaved, admin); err != nil {
				t.Errorf("recover dead surrogate: %v", err)
				return
			}
		}
		if _, err := c.Recover(p, failed, 2, RecoverInterleaved, admin); err != nil {
			t.Errorf("recover failed node: %v", err)
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
			t.Error("content mismatch after multi-death recovery")
			return
		}
		// Post-Close queue Puts are counted drops rather than panics; no
		// teardown path closes a live delivery queue today, so any nonzero
		// count is a new silently-dropping race.
		if d := c.Env.DroppedPuts(); d != 0 {
			t.Errorf("multi-death teardown dropped %d queue deliveries", d)
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestAnyMDeathsJournalGrid sweeps engines × m ∈ {1..M} × kill
// interleavings. -short keeps the paper's engine (tsue) only.
func TestAnyMDeathsJournalGrid(t *testing.T) {
	engines := update.Names()
	if testing.Short() {
		engines = []string{"tsue"}
	}
	interleavings := []struct {
		name    string
		a, b, c int
	}{
		{"pre", 0, 0, 25},   // deaths land before any append
		{"mid", 15, 10, 15}, // appends straddle both deaths
		{"post", 25, 0, 0},  // every append precedes the deaths
	}
	for ei, engine := range engines {
		for m := 1; m <= 3; m++ {
			for ii, il := range interleavings {
				if m == 1 && il.name != "post" {
					continue // no extra deaths: only one interleaving exists
				}
				r := multiDeathRun{
					engine: engine, m: m,
					a: il.a, b: il.b, c: il.c,
					seed: int64(91 + 100*m + 10*ii + ei),
				}
				t.Run(fmt.Sprintf("%s/m%d/%s", engine, m, il.name), func(t *testing.T) {
					runMultiDeath(t, r)
				})
			}
		}
	}
}

// TestMultiDeathStrandingReproFixed pins the exact PR 5 gap: appends ack
// while holder H is live, H dies, MORE appends ack (quorum narrows to the
// survivors), then the surrogate dies. The early appends now exist only on
// the surviving holders — under the old single-replica design the recorded
// holder's death stranded them (ErrSurrogateLost or silent loss); quorum
// read-repair must recover every acked byte.
func TestMultiDeathStrandingReproFixed(t *testing.T) {
	runMultiDeath(t, multiDeathRun{engine: "tsue", m: 3, a: 20, b: 20, c: 10, seed: 41})
}

// TestDegradedUpdateQuorumUnreachable pins the no-zero-copy-acks rule:
// when every quorum holder is unreachable a degraded update must FAIL
// rather than ack with the surrogate holding the only copy, and the
// failed append's seq must not enter the surrogate's acked set.
func TestDegradedUpdateQuorumUnreachable(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(43))
		fileSize := 4 * c.StripeWidth()
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
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		failed := wire.NodeID(3)
		if err := c.BeginDegraded(p, failed, admin); err != nil {
			t.Errorf("begin degraded: %v", err)
			return
		}
		st := c.degraded[failed]
		// Lowest lost DATA block, for determinism.
		var blk wire.BlockID
		found := false
		for _, b := range c.lostBlocks(st.failed) {
			if int(b.Index) >= c.Cfg.K {
				continue
			}
			if !found || b.Stripe < blk.Stripe ||
				b.Stripe == blk.Stripe && b.Index < blk.Index {
				blk, found = b, true
			}
		}
		if !found {
			t.Error("no lost data block")
			return
		}
		surr := st.surr[c.PG(blk.StripeID())]
		base := int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize
		buf := make([]byte, 512)
		rng.Read(buf)
		if err := cl.Update(p, ino, base, buf); err != nil {
			t.Errorf("degraded update with live quorum: %v", err)
			return
		}
		ackedBefore := len(st.quorum[surr].acked)
		if ackedBefore == 0 {
			t.Error("acked degraded update did not enter the acked set")
			return
		}
		for _, h := range c.JournalHoldersOf(failed, surr) {
			c.Fabric.SetDown(h, true)
		}
		err = cl.Update(p, ino, base+1024, buf)
		if !errors.Is(err, errQuorumUnreachable) {
			t.Errorf("update with no reachable holder: got %v, want quorum-unreachable failure", err)
			return
		}
		if n := len(st.quorum[surr].acked); n != ackedBefore {
			t.Errorf("acked set grew %d→%d across a failed append", ackedBefore, n)
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}
