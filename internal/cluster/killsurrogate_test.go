package cluster

// Surrogate failover: the death of a surrogate OSD inside a degraded
// window used to be undefined — journal replication was pure durability
// accounting, so the journaled (and acked) client updates died with the
// surrogate. Kill now detects the surrogate role and promotes the
// journal-replica holder; when that holder is unreachable too, Kill fails
// fast with ErrSurrogateLost instead of letting clients hang.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// degradedStripeOps drives count update+read-back pairs restricted to the
// failed node's lost DATA blocks — the only ranges that stay serviceable
// while a second (surrogate) node is down un-recovered — verifying
// read-your-writes through the journal overlay at every step.
func degradedStripeOps(t *testing.T, p *sim.Proc, c *Cluster, cl *Client, st *degradedState,
	ino uint64, content []byte, rng *rand.Rand, count int) bool {
	t.Helper()
	var lost []wire.BlockID
	for _, blk := range c.lostBlocks(st.failed) {
		if int(blk.Index) < c.Cfg.K {
			lost = append(lost, blk)
		}
	}
	if len(lost) == 0 {
		t.Error("no lost data blocks to exercise")
		return false
	}
	// Deterministic order for the rng-driven picks.
	for i := 1; i < len(lost); i++ {
		for j := i; j > 0 && lost[j].Stripe < lost[j-1].Stripe ||
			j > 0 && lost[j].Stripe == lost[j-1].Stripe && lost[j].Index < lost[j-1].Index; j-- {
			lost[j], lost[j-1] = lost[j-1], lost[j]
		}
	}
	for i := 0; i < count; i++ {
		blk := lost[rng.Intn(len(lost))]
		base := int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize
		off := base + int64(rng.Intn(int(c.Cfg.BlockSize-1024)))
		n := 1 + rng.Intn(1024)
		buf := make([]byte, n)
		rng.Read(buf)
		if err := cl.Update(p, ino, off, buf); err != nil {
			t.Errorf("degraded update %d: %v", i, err)
			return false
		}
		copy(content[off:], buf)
		got, err := cl.Read(p, ino, off, int64(n))
		if err != nil {
			t.Errorf("degraded read %d: %v", i, err)
			return false
		}
		if !bytes.Equal(got, buf) {
			t.Errorf("degraded read-your-writes violated at %d", i)
			return false
		}
	}
	return true
}

// TestKillSurrogatePromotesJournal: with a node down and degraded updates
// journaled, the journal-holding surrogate dies. Kill must promote the
// replica holder — degraded I/O keeps flowing read-your-writes over the
// promoted journal, recovery's cutover replays it, and after both dead
// nodes recover every byte verifies.
func TestKillSurrogatePromotesJournal(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(61))
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
		victim := wire.NodeID(3)
		c.Fabric.SetDown(victim, true)
		st, err := c.registerDegraded(p, victim, admin)
		if err != nil {
			t.Error(err)
			return
		}
		// Journal a first batch of degraded updates, then kill the busiest
		// surrogate.
		if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 50) {
			return
		}
		var surr wire.NodeID
		most := 0
		for _, s := range st.surrogates {
			if n := c.OSDByID(s).journalRecords(victim); n > most {
				most, surr = n, s
			}
		}
		if surr == 0 {
			t.Error("no surrogate holds journal items")
			return
		}
		krep, err := c.Kill(p, surr, admin)
		if err != nil {
			t.Errorf("kill surrogate %d: %v", surr, err)
			return
		}
		if krep.PromotedJournals == 0 {
			t.Error("surrogate death promoted no journal")
			return
		}
		for _, s := range st.surrogates {
			if s == surr {
				t.Error("dead surrogate still routed")
				return
			}
		}
		// Degraded I/O must keep flowing — read-your-writes across the
		// promotion, including updates journaled before it.
		if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 50) {
			return
		}
		// Finish the victim's recovery by hand (its degraded window is
		// still open); the promoted journal must replay.
		rep := &RecoveryReport{}
		lost, err := c.rebuild(p, victim, 4, admin, rep)
		if err != nil {
			t.Error(err)
			return
		}
		c.resetStripeState(lost)
		c.closeGate()
		err = c.cutover(p, victim, admin, rep)
		c.openGate()
		if err != nil {
			t.Error(err)
			return
		}
		if rep.ReplayedItems == 0 {
			t.Error("promoted journal replayed nothing")
			return
		}
		// Now recover the dead surrogate itself and verify everything.
		if _, err := c.Recover(p, surr, 2, RecoverInterleaved, admin); err != nil {
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
			t.Error("content mismatch after surrogate death + promotion + recovery")
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// busiestSurrogate returns the surrogate of st holding the most journal
// items for the failed node (0 when nothing is journaled anywhere).
func busiestSurrogate(c *Cluster, st *degradedState) wire.NodeID {
	var surr wire.NodeID
	most := 0
	for _, s := range st.surrogates {
		if n := c.OSDByID(s).journalRecords(st.failed); n > most {
			most, surr = n, s
		}
	}
	return surr
}

// TestKillSurrogateHolderQuorumSurvives pins the fix for the multi-death
// journal gap: with m ≥ 2 the journal lives on a quorum of holders, so
// losing ONE recorded holder before the surrogate dies must NOT strand the
// journal — the old single-replica design returned ErrSurrogateLost here.
// Kill must instead promote via the surviving quorum peer and read-repair
// every acked append. (Three total deaths exceed the m=2 parity budget of
// degradedConfig, so this test asserts promotion/repair reports rather
// than byte-exact recovery; see killmultideath_test.go for the byte-exact
// any-m grid on an m=3 scheme.)
func TestKillSurrogateHolderQuorumSurvives(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(71))
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
		victim := wire.NodeID(3)
		c.Fabric.SetDown(victim, true)
		st, err := c.registerDegraded(p, victim, admin)
		if err != nil {
			t.Error(err)
			return
		}
		if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 40) {
			return
		}
		surr := busiestSurrogate(c, st)
		if surr == 0 {
			t.Error("no surrogate holds journal items")
			return
		}
		holders := c.JournalHoldersOf(victim, surr)
		if len(holders) < 2 {
			t.Fatalf("expected a quorum of ≥2 holders for m=2, got %v", holders)
		}
		// One recorded holder silently dies, a quorum peer survives: the
		// surrogate's death must still resolve.
		c.Fabric.SetDown(holders[0], true)
		krep, err := c.Kill(p, surr, admin)
		if err != nil {
			t.Errorf("kill surrogate with one dead holder: %v", err)
			return
		}
		if krep.PromotedJournals == 0 {
			t.Error("surrogate death promoted no journal")
			return
		}
		if krep.RepairedItems == 0 {
			t.Error("promotion read-repaired no journal items")
			return
		}
		for _, s := range st.surrogates {
			if s == surr {
				t.Error("dead surrogate still routed")
				return
			}
		}
		// The repaired items must live on the promoted surrogate — three
		// total deaths exceed m=2, so broad I/O continuity is out of scope
		// here (the m=3 grid covers it); the journal itself must survive.
		held := 0
		for _, s := range st.surrogates {
			held += c.OSDByID(s).journalRecords(victim)
		}
		if held < krep.RepairedItems {
			t.Errorf("surrogates hold %d journal items, want ≥ %d repaired", held, krep.RepairedItems)
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestKillSurrogateAllHoldersLost: ErrSurrogateLost is still the verdict
// when MORE than m nodes die — here the surrogate plus its entire holder
// quorum — because no reachable copy of the acked journal remains.
func TestKillSurrogateAllHoldersLost(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(73))
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
		victim := wire.NodeID(3)
		c.Fabric.SetDown(victim, true)
		st, err := c.registerDegraded(p, victim, admin)
		if err != nil {
			t.Error(err)
			return
		}
		if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 40) {
			return
		}
		surr := busiestSurrogate(c, st)
		if surr == 0 {
			t.Error("no surrogate holds journal items")
			return
		}
		// Every quorum holder silently dies first, then the surrogate goes:
		// the acked journal has no surviving copy anywhere.
		for _, h := range c.JournalHoldersOf(victim, surr) {
			c.Fabric.SetDown(h, true)
		}
		_, err = c.Kill(p, surr, admin)
		if !errors.Is(err, ErrSurrogateLost) {
			t.Errorf("kill with all holders dead: got %v, want ErrSurrogateLost", err)
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestMarkDeadSurrogateLostFailsRecover: a hook's MarkDead cannot return
// a promotion's error, so when the surrogate it takes down has lost its
// whole holder quorum, the window keeps the ErrSurrogateLost and the
// window's Recover returns it, not the rebuild's failure that the same
// deaths cause.
func TestMarkDeadSurrogateLostFailsRecover(t *testing.T) {
	run(t, degradedConfig("tsue"), func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(73))
		fileSize := 4 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		failed := wire.NodeID(3)
		if err := c.BeginDegraded(p, failed, cl); err != nil {
			t.Fatal(err)
		}
		st := c.degraded[failed]
		if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 40) {
			return
		}
		surr := busiestSurrogate(c, st)
		if surr == 0 {
			t.Fatal("no surrogate holds journal items")
		}
		for _, h := range c.JournalHoldersOf(failed, surr) {
			c.Fabric.SetDown(h, true)
		}
		c.MarkDead(surr)
		p.Sleep(time.Microsecond) // the promotion's proc runs
		if _, err := c.Recover(p, failed, 2, RecoverInterleaved, cl); !errors.Is(err, ErrSurrogateLost) {
			t.Errorf("recover after a lost promotion: got %v, want ErrSurrogateLost", err)
		}
	})
}

// TestKillSurrogateAfterFailedQuorumRound: a degraded update whose quorum
// round fails is retried by the client under a new seq, so the failed seq
// may be on no holder while a later seq is acked. That hole is not a lost
// acked append: killing the surrogate (two deaths on RS(4,2)) must promote
// the journal, and the retried bytes must survive promotion and both
// recoveries byte-exact.
func TestKillSurrogateAfterFailedQuorumRound(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(79))
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
		var blk wire.BlockID
		found := false
		for _, b := range c.lostBlocks(failed) {
			if int(b.Index) < c.Cfg.K && (!found || b.Stripe < blk.Stripe) {
				blk, found = b, true
			}
		}
		if !found {
			t.Error("no lost data block")
			return
		}
		off := int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize + 512
		update := func(fill byte) bool {
			buf := bytes.Repeat([]byte{fill}, 1024)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Errorf("degraded update: %v", err)
				return false
			}
			copy(content[off:], buf)
			return true
		}
		if !update(0xa1) {
			return
		}
		_, surr, _ := c.degradedRoute(blk.StripeID())
		// Both holders reject the next append's replica copy, so its quorum
		// round fails; the client's retry appends under the following seq
		// and acks.
		target := c.OSDByID(surr).journalFor(failed).nextSeq + 1
		flipped := 0
		c.Fabric.SetCorruptor(func(_, _ wire.NodeID, m wire.Msg) (wire.Msg, bool) {
			jr, ok := m.(*wire.JournalReplica)
			if !ok || jr.Seq != target {
				return nil, false
			}
			flipped++
			cp := bytes.Clone(jr.Data)
			cp[0] ^= 0xff
			return wire.WithPayload(m, cp), true
		})
		if !update(0xb2) {
			return
		}
		c.Fabric.SetCorruptor(nil)
		if flipped != len(c.JournalHoldersOf(failed, surr)) {
			t.Errorf("flipped %d replica copies, want one per holder", flipped)
			return
		}
		if _, err := c.Kill(p, surr, admin); err != nil {
			t.Errorf("kill surrogate %d after a failed quorum round: %v", surr, err)
			return
		}
		readBack := func(what string, lo, n int64) bool {
			got, err := cl.Read(p, ino, lo, n)
			if err != nil {
				t.Errorf("read %s: %v", what, err)
				return false
			}
			if !bytes.Equal(got, content[lo:lo+n]) {
				t.Errorf("content mismatch %s", what)
				return false
			}
			return true
		}
		if !readBack("after promotion", off, 1024) {
			return
		}
		for _, id := range []wire.NodeID{surr, failed} {
			if _, err := c.Recover(p, id, 2, RecoverInterleaved, admin); err != nil {
				t.Errorf("recover %d: %v", id, err)
				return
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
		if !readBack("after recovery", 0, fileSize) {
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestKillSurrogateMidAppend: the surrogate of a lost block dies while one
// client update to that block is inside its append (the persist or the
// quorum round), at every delay of a sweep. Two deaths on RS(4,2) are
// inside the death budget, so the update must ack — a surrogate that died
// during its round answers with a retryable bounce and the client retries
// onto the promoted surrogate — and every byte must read back after both
// nodes recover.
func TestKillSurrogateMidAppend(t *testing.T) {
	var bad []string
	n := 0
	for d := time.Duration(0); d <= 400*time.Microsecond; d += 5 * time.Microsecond {
		n++
		if err := killSurrogateMidAppend(t, d); err != nil {
			bad = append(bad, fmt.Sprintf("kill after %v: %v", d, err))
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d of %d delays failed:\n%s", len(bad), n, strings.Join(bad, "\n"))
	}
}

// killSurrogateMidAppend runs one delay of TestKillSurrogateMidAppend.
func killSurrogateMidAppend(t *testing.T, delay time.Duration) error {
	c := MustNew(degradedConfig("tsue"))
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	err := errors.New("deadlock")
	c.Env.Go("t", func(p *sim.Proc) {
		err = func() error {
			rng := rand.New(rand.NewSource(83))
			fileSize := 4 * c.StripeWidth()
			content := make([]byte, fileSize)
			rng.Read(content)
			ino, err := cl.Create(p, "f", fileSize)
			if err != nil {
				return err
			}
			if err := cl.WriteFile(p, ino, content); err != nil {
				return err
			}
			if err := c.DrainAll(p, admin); err != nil {
				return err
			}
			failed := wire.NodeID(3)
			c.Fabric.SetDown(failed, true)
			st, err := c.registerDegraded(p, failed, admin)
			if err != nil {
				return err
			}
			var blk wire.BlockID
			found := false
			for _, b := range c.lostBlocks(st.failed) {
				if int(b.Index) < c.Cfg.K && (!found || b.Compare(blk) < 0) {
					blk, found = b, true
				}
			}
			if !found {
				return errors.New("no lost data block")
			}
			surr := st.surr[c.PG(blk.StripeID())]
			killed := sim.NewQueue[error](c.Env)
			c.Env.Go("killer", func(kp *sim.Proc) {
				kp.Sleep(delay)
				krep, err := c.Kill(kp, surr, admin)
				if err == nil && krep.PromotedJournals != 1 {
					err = fmt.Errorf("promoted %d journals, want 1", krep.PromotedJournals)
				}
				killed.Put(err)
			})
			off := int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize + 1024
			buf := make([]byte, 4<<10)
			rng.Read(buf)
			uerr := cl.Update(p, ino, off, buf)
			if kerr, _ := killed.Get(p); kerr != nil {
				return fmt.Errorf("kill surrogate %d: %w", surr, kerr)
			}
			if uerr != nil {
				return fmt.Errorf("update: %w", uerr)
			}
			copy(content[off:], buf)
			if got, err := cl.Read(p, ino, off, int64(len(buf))); err != nil || !bytes.Equal(got, buf) {
				return fmt.Errorf("read-back after promotion: err %v, match %v", err, bytes.Equal(got, buf))
			}
			for _, id := range []wire.NodeID{surr, failed} {
				if _, err := c.Recover(p, id, 2, RecoverInterleaved, admin); err != nil {
					return fmt.Errorf("recover %d: %w", id, err)
				}
			}
			if err := c.DrainAll(p, admin); err != nil {
				return err
			}
			if _, err := c.Scrub(); err != nil {
				return fmt.Errorf("scrub: %w", err)
			}
			if got, err := cl.Read(p, ino, 0, fileSize); err != nil || !bytes.Equal(got, content) {
				return fmt.Errorf("read-back after recovery: err %v, match %v", err, bytes.Equal(got, content))
			}
			return nil
		}()
	})
	c.Env.RunTest(t)
	return err
}

// TestKillSurrogateChained: promotion restores the journal's quorum, so
// the promoted surrogate's own death is survivable too. On RS(3,3) the
// failed node, the busiest surrogate and then the surrogate its PGs were
// promoted to die in turn, with acked appends before, between and after
// the deaths; every acked byte must survive both promotions and the three
// recoveries.
func TestKillSurrogateChained(t *testing.T) {
	c := MustNew(multiDeathConfig("tsue"))
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(89))
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
		// kill takes a surrogate down and returns where one of its PGs was
		// promoted to.
		kill := func(surr wire.NodeID) wire.NodeID {
			pg := -1
			for g, s := range st.surr {
				if s == surr && (pg < 0 || g < pg) {
					pg = g
				}
			}
			krep, err := c.Kill(p, surr, admin)
			if err != nil {
				t.Errorf("kill surrogate %d: %v", surr, err)
				return 0
			}
			if krep.PromotedJournals != 1 {
				t.Errorf("kill surrogate %d promoted %d journals, want 1", surr, krep.PromotedJournals)
				return 0
			}
			return st.surr[pg]
		}
		if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 20) {
			return
		}
		first := busiestSurrogate(c, st)
		if first == 0 {
			t.Error("no surrogate holds journal items")
			return
		}
		second := kill(first)
		if second == 0 || !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 20) {
			return
		}
		if c.OSDByID(second).journalRecords(failed) == 0 {
			t.Errorf("promoted surrogate %d holds no journal records", second)
			return
		}
		if kill(second) == 0 || !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 20) {
			return
		}
		for _, id := range []wire.NodeID{first, second, failed} {
			if _, err := c.Recover(p, id, 2, RecoverInterleaved, admin); err != nil {
				t.Errorf("recover %d: %v", id, err)
				return
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
			t.Error("content mismatch after a chained surrogate death")
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestKillSurrogateHolderDiesDuringRepair: the first holder T of a dead
// surrogate S's journal dies right after it served S's repair fetch, so
// the node promotion would have moved the journal to is gone before the
// splice. Three deaths on RS(3,3) are inside the death budget: promotion
// must take the first live successor as the new surrogate, and every
// acked byte must survive all three recoveries, for every engine.
func TestKillSurrogateHolderDiesDuringRepair(t *testing.T) {
	for _, engine := range update.Names() {
		t.Run(engine, func(t *testing.T) {
			if err := killHolderDuringRepair(t, engine); err != nil {
				t.Error(err)
			}
		})
	}
}

// killHolderDuringRepair runs one engine of
// TestKillSurrogateHolderDiesDuringRepair.
func killHolderDuringRepair(t *testing.T, engine string) error {
	c := MustNew(multiDeathConfig(engine))
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	err := errors.New("deadlock")
	c.Env.Go("t", func(p *sim.Proc) {
		err = func() error {
			rng := rand.New(rand.NewSource(89))
			fileSize := 3 * c.StripeWidth()
			content := make([]byte, fileSize)
			rng.Read(content)
			ino, err := cl.Create(p, "f", fileSize)
			if err != nil {
				return err
			}
			if err := cl.WriteFile(p, ino, content); err != nil {
				return err
			}
			if err := c.DrainAll(p, admin); err != nil {
				return err
			}
			failed := wire.NodeID(3)
			if err := c.BeginDegraded(p, failed, admin); err != nil {
				return fmt.Errorf("begin degraded: %w", err)
			}
			st := c.degraded[failed]
			if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 20) {
				return errors.New("degraded ops before the deaths")
			}
			surr := busiestSurrogate(c, st)
			if surr == 0 {
				return errors.New("no surrogate holds journal items")
			}
			holder := c.JournalHoldersOf(failed, surr)[0]
			h := c.OSDByID(holder).handle
			if err := c.Fabric.SetHandler(holder, func(hp *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
				resp := h(hp, from, m)
				if jf, ok := m.(*wire.JournalFetch); ok && jf.Surrogate == surr {
					c.MarkDead(holder)
				}
				return resp
			}); err != nil {
				return err
			}
			krep, err := c.Kill(p, surr, admin)
			if err != nil {
				return fmt.Errorf("kill surrogate %d: %w", surr, err)
			}
			if krep.PromotedJournals != 1 {
				return fmt.Errorf("kill surrogate %d promoted %d journals, want 1", surr, krep.PromotedJournals)
			}
			if !c.Fabric.Down(holder) {
				return fmt.Errorf("holder %d served no repair fetch", holder)
			}
			if !degradedStripeOps(t, p, c, cl, st, ino, content, rng, 20) {
				return errors.New("degraded ops after the deaths")
			}
			for _, id := range []wire.NodeID{holder, surr, failed} {
				if _, err := c.Recover(p, id, 2, RecoverInterleaved, admin); err != nil {
					return fmt.Errorf("recover %d: %w", id, err)
				}
			}
			if err := c.DrainAll(p, admin); err != nil {
				return err
			}
			if _, err := c.Scrub(); err != nil {
				return fmt.Errorf("scrub: %w", err)
			}
			if got, err := cl.Read(p, ino, 0, fileSize); err != nil || !bytes.Equal(got, content) {
				return fmt.Errorf("read-back after recovery: err %v, match %v", err, bytes.Equal(got, content))
			}
			return nil
		}()
	})
	c.Env.RunTest(t)
	return err
}

// cutoverKill is one run of killDuringCutover.
type cutoverKill struct {
	engine string
	salt   uint64
	mode   RecoverMode
	// whole spreads the degraded updates over the whole file; otherwise
	// they fall on node 3's lost data blocks only (degradedStripeOps),
	// whose journal records all replay at their surrogates.
	whole bool
	// settle runs the degraded updates inside BeginDegraded's settle
	// barrier: the first Settle to reach an OSD holds until they are done,
	// and then reaches the OSD through the hooks.
	settle bool
	// markDead makes kill a hook's death, MarkDead, which promotes in a
	// proc of its own, instead of a Kill in a proc of the test's.
	markDead bool
	// own lets Recover open node 3's window itself: the updates run while
	// node 3 lives, undrained, and the hooks wrap the handlers when the
	// first Settle of Recover's barrier reaches an OSD. The busiest
	// surrogate is then the one seeded with the most records, or the first
	// one when no journal holds any.
	own bool
	// mod adjusts degradedConfig(engine) before the cluster is built.
	mod func(*Config)
	// hook wraps OSD at's handler h; surr is the busiest surrogate, and
	// kill takes its victim down (the first call only).
	hook func(c *Cluster, at, surr wire.NodeID, h netsim.Handler, kill func(victim wire.NodeID)) netsim.Handler
	// check gets the recovery's error, the Kill's report and error, and
	// the busiest surrogate's acked record count. A MarkDead has no report:
	// it is read off the window once node 3's recovery returns, counting a
	// journal as promoted when the victim no longer serves the window and
	// its records as repaired when its successor acked them, with the
	// window's promoteErr as the error.
	check func(rerr error, krep *KillReport, kerr error, acked int) error
}

// killDuringCutover runs a degraded window of k.engine under tie salt
// k.salt: a 6-stripe file written whole, BeginDegraded(3) and 60 degraded
// updates (with k.own, 60 updates and then Recover's own window). k.hook
// then wraps every OSD's handler, and node 3 is recovered under k.mode. A
// victim that was never killed is an error. When the recovery succeeded,
// the victim is recovered too and the cluster must drain, scrub and read
// back byte-exact.
func killDuringCutover(t *testing.T, k cutoverKill) error {
	cfg := degradedConfig(k.engine)
	if k.mod != nil {
		k.mod(&cfg)
	}
	c := MustNew(cfg)
	defer c.Env.Close()
	c.Env.SetTieSalt(k.salt)
	cl, admin, killer := c.NewClient(), c.NewClient(), c.NewClient()
	err := errors.New("deadlock")
	c.Env.Go("t", func(p *sim.Proc) {
		err = func() error {
			rng := rand.New(rand.NewSource(61))
			fileSize := 6 * c.StripeWidth()
			content := make([]byte, fileSize)
			rng.Read(content)
			ino, err := cl.Create(p, "f", fileSize)
			if err != nil {
				return err
			}
			if err := cl.WriteFile(p, ino, content); err != nil {
				return err
			}
			failed := wire.NodeID(3)
			var (
				st     *degradedState
				surr   wire.NodeID
				acked  int
				krep   *KillReport
				kerr   error
				victim wire.NodeID
				ended  bool
				// heir is the victim's first live ring successor, which
				// a promotion moves its PGs to, and heirAcked its acked
				// count at the death.
				heir      wire.NodeID
				heirAcked int
			)
			kill := func(v wire.NodeID) {
				if victim != 0 {
					return
				}
				victim = v
				if !k.markDead {
					c.Env.Go("killer", func(kp *sim.Proc) {
						krep, kerr = c.Kill(kp, v, killer)
						ended = true
					})
					return
				}
				c.MarkDead(v)
				heir = c.ringAfter(v, failed, 1)[0]
				if q := st.quorum[heir]; q != nil {
					heirAcked = len(q.acked)
				}
				ended = true
			}
			ops := func(p *sim.Proc) bool {
				if k.whole {
					_, ok := fileOps(t, p, cl, ino, content, rng, 60)
					return ok
				}
				return degradedStripeOps(t, p, c, cl, &degradedState{failed: failed}, ino, content, rng, 60)
			}
			// arm runs the degraded updates, unless Recover opens the
			// window, and then wraps every OSD's handler around the busiest
			// surrogate.
			arm := func(p *sim.Proc) error {
				st = c.degraded[failed]
				if !k.own && !ops(p) {
					return errors.New("degraded ops before the death")
				}
				if surr = busiestSurrogate(c, st); surr == 0 && k.own {
					surr = st.surrogates[0]
				}
				if surr == 0 {
					return errors.New("no surrogate holds journal items")
				}
				acked = len(st.quorum[surr].acked)
				for _, o := range c.OSDs {
					if err := c.Fabric.SetHandler(o.id, k.hook(c, o.id, surr, o.handle, kill)); err != nil {
						return err
					}
				}
				return nil
			}
			if k.own && !ops(p) {
				return errors.New("updates before the death")
			}
			armed, armErr := false, error(nil)
			if k.settle || k.own {
				for _, o := range c.OSDs {
					if err := c.Fabric.SetHandler(o.id, func(hp *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
						if _, ok := m.(*wire.Settle); !ok || armed {
							return o.handle(hp, from, m)
						}
						armed = true
						if armErr = arm(hp); armErr != nil {
							return o.handle(hp, from, m)
						}
						return k.hook(c, o.id, surr, o.handle, kill)(hp, from, m)
					}); err != nil {
						return err
					}
				}
			}
			if !k.own {
				if err := c.BeginDegraded(p, failed, admin); err != nil {
					return fmt.Errorf("begin degraded: %w", err)
				}
				if !k.settle {
					armErr = arm(p)
				} else if !armed {
					armErr = errors.New("no Settle reached an OSD")
				}
				if armErr != nil {
					return armErr
				}
			}
			_, rerr := c.Recover(p, failed, 2, k.mode, admin)
			if k.own && !armed {
				armErr = errors.New("no Settle reached an OSD")
			}
			if armErr != nil {
				return armErr
			}
			if victim == 0 {
				return fmt.Errorf("no node was killed (recover: %v)", rerr)
			}
			for !ended {
				p.Sleep(50 * time.Microsecond)
			}
			if k.markDead {
				krep, kerr = &KillReport{}, st.promoteErr
				if !slices.Contains(st.surrogates, victim) {
					krep.PromotedJournals = 1
					krep.RepairedItems = len(st.quorum[heir].acked) - heirAcked
				}
			}
			if err := k.check(rerr, krep, kerr, acked); err != nil {
				return err
			}
			if rerr != nil {
				return nil
			}
			if _, err := c.Recover(p, victim, 2, k.mode, admin); err != nil {
				return fmt.Errorf("recover victim %d: %w", victim, err)
			}
			if err := c.DrainAll(p, admin); err != nil {
				return err
			}
			if _, err := c.Scrub(); err != nil {
				return fmt.Errorf("scrub: %w", err)
			}
			if got, err := cl.Read(p, ino, 0, fileSize); err != nil || !bytes.Equal(got, content) {
				return fmt.Errorf("read-back after recovery: err %v, match %v", err, bytes.Equal(got, content))
			}
			return nil
		}()
	})
	c.Env.RunTest(t)
	return err
}

// ownReplayHook kills the busiest surrogate when its first ReplayUpdate
// reaches a home: it dies during its own journal replay.
func ownReplayHook(_ *Cluster, _, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
	return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
		if _, ok := m.(*wire.ReplayUpdate); ok && from == surr {
			kill(surr)
		}
		return h(p, from, m)
	}
}

// promotedWithAcked requires a recovery that succeeded and one promoted
// journal with every acked record repaired.
func promotedWithAcked(rerr error, krep *KillReport, kerr error, acked int) error {
	switch {
	case kerr != nil:
		return fmt.Errorf("kill: %w", kerr)
	case krep.PromotedJournals != 1 || krep.RepairedItems != acked:
		return fmt.Errorf("kill promoted %d journals with %d records repaired, want 1 with %d", krep.PromotedJournals, krep.RepairedItems, acked)
	case rerr != nil:
		return fmt.Errorf("recover: %w", rerr)
	}
	return nil
}

// TestKillSurrogateDuringOwnReplay: the busiest surrogate dies during its
// own journal replay, when its first ReplayUpdate reaches the block's home.
// The window is still open (the cutover retires the route only once every
// replay is acked) and every holder keeps its quorum copies until then, so
// Kill promotes the journal with every acked record repaired. The records
// the dead surrogate had yet to replay are parked for it (land, rule 2:
// their homes are the surrogate itself, down with no window), so the
// recovery succeeds, and recovering the surrogate replays them. Every
// engine runs at salt 0 and under eight tie salts.
func TestKillSurrogateDuringOwnReplay(t *testing.T) {
	for _, engine := range update.Names() {
		for salt := uint64(0); salt <= 8; salt++ {
			t.Run(fmt.Sprintf("%s/salt%d", engine, salt), func(t *testing.T) {
				t.Parallel()
				k := cutoverKill{engine: engine, salt: salt, mode: RecoverInterleaved, hook: ownReplayHook, check: promotedWithAcked}
				if err := killDuringCutover(t, k); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestMarkDeadSurrogatePromotes: a hook's MarkDead takes the busiest
// surrogate down, once while BeginDegraded's settle barrier is open (the
// degraded updates run inside it, so every one is acked by then) and once
// on its first ReplayUpdate. MarkDead returns at once and promotes in a
// proc of its own, and the journal must be promoted with every acked
// record repaired, as a Kill promotes it; both recoveries, a drain, a
// scrub and a byte-exact read-back follow. Six engines, salts 0–8.
func TestMarkDeadSurrogatePromotes(t *testing.T) {
	settleHook := func(_ *Cluster, _, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
		return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			if _, ok := m.(*wire.Settle); ok {
				kill(surr)
			}
			return h(p, from, m)
		}
	}
	for _, at := range []string{"settle", "replay"} {
		for _, engine := range update.Names() {
			for salt := uint64(0); salt <= 8; salt++ {
				t.Run(fmt.Sprintf("%s/%s/salt%d", at, engine, salt), func(t *testing.T) {
					t.Parallel()
					k := cutoverKill{engine: engine, salt: salt, mode: RecoverInterleaved, markDead: true,
						hook: ownReplayHook, check: promotedWithAcked}
					if at == "settle" {
						k.settle, k.hook = true, settleHook
					}
					if err := killDuringCutover(t, k); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestKillReplayHome: the first replay home that is not one of the
// window's surrogates dies when its first ReplayUpdate reaches it. The
// updates fall over the whole file, so a journal holds records of blocks
// that survived node 3. The records still to replay at the dead home are
// parked for it (land, rule 2), the others replay at their live homes, and
// recovering the dead home replays the parked ones. Six engines, both
// replaying modes, salt 0 and eight tie salts.
func TestKillReplayHome(t *testing.T) {
	hook := func(c *Cluster, at, _ wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
		return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			if st := c.degraded[3]; st != nil && !slices.Contains(st.surrogates, at) {
				if _, ok := m.(*wire.ReplayUpdate); ok {
					kill(at)
				}
			}
			return h(p, from, m)
		}
	}
	check := func(rerr error, krep *KillReport, kerr error, _ int) error {
		switch {
		case kerr != nil:
			return fmt.Errorf("kill: %w", kerr)
		case krep.PromotedJournals != 0:
			return fmt.Errorf("kill of a replay home promoted %d journals", krep.PromotedJournals)
		case rerr != nil:
			return fmt.Errorf("recover: %w", rerr)
		}
		return nil
	}
	for _, engine := range update.Names() {
		for _, mode := range []RecoverMode{RecoverInterleaved, RecoverLogReplay} {
			for salt := uint64(0); salt <= 8; salt++ {
				t.Run(fmt.Sprintf("%s/%s/salt%d", engine, mode, salt), func(t *testing.T) {
					t.Parallel()
					k := cutoverKill{engine: engine, salt: salt, mode: mode, whole: true, hook: hook, check: check}
					if err := killDuringCutover(t, k); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestKillSurrogateRacesRetirement: the busiest surrogate dies right after
// its journal replay was acked, and its holders answer the promotion's
// repair fetches only once the cutover has retired the route and dropped
// their quorum copies. A retired window has nothing left to promote, so
// Kill must return without an ErrSurrogateLost and promote nothing; both
// recoveries, a drain, a scrub and a byte-exact read-back follow.
func TestKillSurrogateRacesRetirement(t *testing.T) {
	hook := func(c *Cluster, at, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
		return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			switch v := m.(type) {
			case *wire.JournalReplay:
				resp := h(p, from, m)
				if at == surr {
					kill(surr)
				}
				return resp
			case *wire.JournalFetch:
				for c.degraded[v.Failed] != nil {
					p.Sleep(5 * time.Microsecond)
				}
			}
			return h(p, from, m)
		}
	}
	check := func(rerr error, krep *KillReport, kerr error, _ int) error {
		switch {
		case kerr != nil:
			return fmt.Errorf("kill: %w", kerr)
		case krep.PromotedJournals != 0:
			return fmt.Errorf("kill promoted %d journals of a retired window", krep.PromotedJournals)
		case rerr != nil:
			return fmt.Errorf("recover: %w", rerr)
		}
		return nil
	}
	for _, engine := range update.Names() {
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			k := cutoverKill{engine: engine, salt: tieSalt, mode: RecoverInterleaved, hook: hook, check: check}
			if err := killDuringCutover(t, k); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDeathAtRecoverStep kills one node at a named step of Recover(3):
// each step must decide its node again when it acts, so the rebuild
// re-picks a dead target and re-streams from live sources, and the cutover
// waits for a dead surrogate's promotion. Four roles die with node 3's
// window opened beforehand:
//   - target: a rebuild target, when its first rebuild RecoverBlock
//     reaches it;
//   - source: a rebuild source, when its first RebuildRead reaches it;
//   - surrogate: the busiest surrogate, once the rebuild's last block is
//     acked;
//   - holder: that surrogate's first journal holder, at the same step.
//
// Every JournalFetch is answered 1 ms late, so a surrogate's promotion
// outlasts the cutover's first round, which must wait for it.
//
// Two more die with Recover opening the window itself, after undrained
// updates over the whole file:
//   - ward: node 3's ring predecessor, whose DataLog replicas node 3 held,
//     when the first Settle of node 3's window reaches it;
//   - heir: node 3's ring successor, which holds node 3's DataLog replicas
//     and is a surrogate, when the cutover's first JournalReplay arrives.
//
// Each takes state whose only other copy died with node 3, and its
// recovery must fail with ErrLogLost: the ward's unrecycled DataLog
// records under TSUE at Copies 2, with or without a DeltaLog, and under
// CoRD and TSUE's DeltaLog its buffered deltas of node 3's stripes or its
// data shards of the stripes whose buffer died with node 3; the heir's
// journal seeds under TSUE at Copies 2. TSUE at Copies 3 without a
// DeltaLog survives both. Every other run must recover node 3 and then the
// victim, drain, scrub and read back byte-exact. Six engines (the ward:
// FO, CoRD and TSUE; the heir: TSUE), salts 0–8, interleaved at even salts
// and log-replay at odd ones.
func TestDeathAtRecoverStep(t *testing.T) {
	type hook = func(c *Cluster, at, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler
	// rebuilding reports whether m rebuilds one of node 3's blocks (a
	// re-encode names a live parity).
	rebuilding := func(c *Cluster, _ wire.NodeID, m wire.Msg) bool {
		v, ok := m.(*wire.RecoverBlock)
		return ok && c.Placement(v.Blk.StripeID())[v.Blk.Index] == 3
	}
	// on kills the node a message of kind reaches, before it is handled.
	on := func(kind func(c *Cluster, at wire.NodeID, m wire.Msg) bool) func() hook {
		return func() hook {
			return func(c *Cluster, at, _ wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
				return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
					if kind(c, at, m) {
						kill(at)
					}
					return h(p, from, m)
				}
			}
		}
	}
	// lastAck kills victim once the rebuild's last block is acked.
	lastAck := func(victim func(c *Cluster, surr wire.NodeID) wire.NodeID) func() hook {
		return func() hook {
			acks := 0
			return func(c *Cluster, _, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
				lost := len(c.lostBlocks(3))
				return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
					rebuild := rebuilding(c, 0, m)
					resp := h(p, from, m)
					if rebuild && wire.AckErr(resp, nil) == nil {
						if acks++; acks == lost {
							kill(victim(c, surr))
						}
					}
					return resp
				}
			}
		}
	}
	roles := []struct {
		name string
		hook func() hook
		own  bool
	}{
		{"target", on(rebuilding), false},
		{"source", on(func(_ *Cluster, _ wire.NodeID, m wire.Msg) bool { _, ok := m.(*wire.RebuildRead); return ok }), false},
		{"surrogate", lastAck(func(_ *Cluster, surr wire.NodeID) wire.NodeID { return surr }), false},
		{"holder", lastAck(func(c *Cluster, surr wire.NodeID) wire.NodeID { return c.degraded[3].quorum[surr].holders[0] }), false},
		{"ward", on(func(c *Cluster, at wire.NodeID, m wire.Msg) bool {
			_, ok := m.(*wire.Settle)
			return ok && at == ringStep(c, 3, -1)
		}), true},
		{"heir", func() hook {
			killed := false
			return func(c *Cluster, _, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
				return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
					if _, ok := m.(*wire.JournalReplay); ok && !killed {
						killed = true
						kill(ringStep(c, 3, 1))
					}
					return h(p, from, m)
				}
			}
		}, true},
	}
	// The own-window roles run TSUE also without a DeltaLog, so that only
	// its DataLog's budget is at stake, at Copies 2 and 3. The ward's
	// in-place engines keep no log off the stripe, and FO stands for them;
	// the heir runs TSUE only, the one engine whose journals hold seeds.
	variants := map[string]func(*Config){
		"tsue-nodeltalog":         func(c *Config) { c.EngineOpts.NoDeltaLog = true },
		"tsue-nodeltalog-copies3": func(c *Config) { c.EngineOpts.NoDeltaLog, c.EngineOpts.Copies = true, 3 },
	}
	// lost lists the cells whose death takes state whose only other copy
	// died with node 3 (ErrLogLost): the ward's DataLog records or
	// buffered deltas, and the heir's journal seeds, node 3's DataLog
	// records of which it held the only replica.
	lost := map[string]bool{
		"ward/tsue": true, "ward/cord": true, "ward/tsue-nodeltalog": true,
		"heir/tsue": true,
	}
	for _, role := range roles {
		engines := update.Names()
		switch role.name {
		case "ward":
			engines = []string{"fo", "cord", "tsue", "tsue-nodeltalog", "tsue-nodeltalog-copies3"}
		case "heir":
			engines = []string{"tsue", "tsue-nodeltalog-copies3"}
		}
		for _, engine := range engines {
			for salt := uint64(0); salt <= 8; salt++ {
				mode := RecoverInterleaved
				if salt%2 == 1 {
					mode = RecoverLogReplay
				}
				t.Run(fmt.Sprintf("%s/%s/salt%d", role.name, engine, salt), func(t *testing.T) {
					t.Parallel()
					lostLog := lost[role.name+"/"+engine]
					check := func(rerr error, _ *KillReport, kerr error, _ int) error {
						switch {
						case kerr != nil && !(lostLog && errors.Is(kerr, ErrLogLost)):
							return fmt.Errorf("kill: %w", kerr)
						case lostLog && !errors.Is(rerr, ErrLogLost):
							return fmt.Errorf("recover: %v, want ErrLogLost", rerr)
						case !lostLog && rerr != nil:
							return fmt.Errorf("recover: %w", rerr)
						}
						return nil
					}
					hook := role.hook()
					slow := func(c *Cluster, at, surr wire.NodeID, h netsim.Handler, kill func(wire.NodeID)) netsim.Handler {
						h = hook(c, at, surr, h, kill)
						return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
							if _, ok := m.(*wire.JournalFetch); ok {
								p.Sleep(time.Millisecond)
							}
							return h(p, from, m)
						}
					}
					k := cutoverKill{engine: engine, salt: salt, mode: mode, whole: role.own, own: role.own, hook: slow, check: check}
					if mod := variants[engine]; mod != nil {
						k.engine, k.mod = "tsue", mod
					}
					if err := killDuringCutover(t, k); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// ringStep returns the OSD n steps from id in ring order (negative steps
// go back): under TSUE, node id's DataLog replicas live on its ring
// successor, and its ring predecessor's on id.
func ringStep(c *Cluster, id wire.NodeID, n int) wire.NodeID {
	ids := c.osdIDs()
	return ids[((slices.Index(ids, id)+n)%len(ids)+len(ids))%len(ids)]
}
