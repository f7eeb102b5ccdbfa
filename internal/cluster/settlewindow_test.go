package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// TestSettleWindowKeepsServing pins interleaved recovery's first window:
// the update gate closes only around the route registration, and while the
// settle barrier runs with updates flowing, a normal-path update to a
// stripe without the failed node completes, a degraded update journals on
// its surrogate, and degraded reads of a surviving block and of a lost
// block's range the settle has nothing to merge for return, all before the
// settle ends; a degraded read of a lost block's range that still has
// pending state, issued inside the settle, returns only once the settle
// has merged that range. Four updaters keep going throughout, and the run
// ends with drain, scrub and a byte-exact read-back.
func TestSettleWindowKeepsServing(t *testing.T) {
	for _, eng := range []string{"tsue", "pl"} {
		t.Run(eng, func(t *testing.T) { runSettleWindow(t, eng) })
	}
}

// settleProbe is one client op issued when the settle starts.
type settleProbe struct {
	name   string
	doneAt time.Duration
	done   bool
}

func runSettleWindow(t *testing.T, engine string) {
	cfg := degradedConfig(engine)
	// Logs large enough that the settle has real merging to do.
	cfg.EngineOpts.UnitSize = 256 << 10
	cfg.EngineOpts.RecycleThreshold = 1 << 20
	c := MustNew(cfg)
	defer c.Env.Close()
	cl, admin := c.NewClient(), c.NewClient()
	const stripes, updaters = 16, 4
	bs, sw := cfg.BlockSize, c.StripeWidth()
	// Updaters own disjoint slots in the first half of every data block;
	// the probes write and read only second halves.
	slot := bs / 2 / updaters
	content := make([]byte, stripes*sw)
	rand.New(rand.NewSource(7)).Read(content)
	var ino uint64
	stop, running := false, 0
	var rep *RecoveryReport
	verified := false

	c.Env.Go("test", func(p *sim.Proc) {
		var err error
		if ino, err = cl.Create(p, "f", int64(len(content))); err != nil {
			t.Error(err)
			return
		}
		if err = cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		victim := c.OSDs[2].NodeID()
		// A stripe without the victim, and one where it hosts a data block.
		normal, lostStripe, lostIdx := -1, -1, -1
		for s := 0; s < stripes; s++ {
			osds := c.Placement(wire.StripeID{Ino: ino, Stripe: uint32(s)})
			switch i := slices.Index(osds, victim); {
			case i < 0 && normal < 0:
				normal = s
			case i >= 0 && i < cfg.K && lostStripe < 0:
				lostStripe, lostIdx = s, i
			}
		}
		if normal < 0 || lostStripe < 0 {
			t.Errorf("placement has no stripe without node %d or none with a data block on it", victim)
			return
		}
		// Surviving data blocks of the degraded stripe: one to update, one
		// to read.
		updIdx, readIdx := (lostIdx+1)%cfg.K, (lostIdx+2)%cfg.K
		secondHalf := func(s, idx int) int64 { return int64(s)*sw + int64(idx)*bs + bs/2 }
		// An update the settle will have to merge, in a range no one else
		// writes: the lost block's copy of that range reconstructs from it.
		pendingOff := bs/2 + bs/4
		pre := make([]byte, 1024)
		rand.New(rand.NewSource(pendingOff)).Read(pre)
		if err := cl.Update(p, ino, int64(lostStripe)*sw+int64(readIdx)*bs+pendingOff, pre); err != nil {
			t.Error(err)
			return
		}
		copy(content[int64(lostStripe)*sw+int64(readIdx)*bs+pendingOff:], pre)

		for u := 0; u < updaters; u++ {
			running++
			c.Env.Go(fmt.Sprintf("updater%d", u), func(up *sim.Proc) {
				defer func() { running-- }()
				rng := rand.New(rand.NewSource(int64(100 + u)))
				for !stop && !t.Failed() {
					s, d := rng.Intn(stripes), rng.Intn(cfg.K)
					in := rng.Int63n(slot - 1)
					off := int64(s)*sw + int64(d)*bs + int64(u)*slot + in
					buf := make([]byte, 1+rng.Int63n(slot-in))
					rng.Read(buf)
					if err := cl.Update(up, ino, off, buf); err != nil {
						t.Errorf("updater %d: %v", u, err)
						return
					}
					copy(content[off:], buf)
				}
			})
		}
		p.Sleep(2 * time.Millisecond)

		c.Env.Go("recover", func(rp *sim.Proc) {
			r, err := c.Recover(rp, victim, 2, RecoverInterleaved, admin)
			if err != nil {
				t.Errorf("recover: %v", err)
			}
			rep = r
		})
		// Wait for the settle to start: the gate reopens with the window's
		// settling flag set.
		var st *degradedState
		for st == nil || !st.settling {
			c.gateCond.Wait(p)
			st = c.degraded[victim]
		}
		start := p.Now()
		sid := wire.StripeID{Ino: ino, Stripe: uint32(lostStripe)}
		if !c.settleFenced(st, sid, pendingOff, pendingOff+1024) {
			t.Errorf("the update at %d of stripe %d was merged before the settle started", pendingOff, lostStripe)
			return
		}
		probes := []*settleProbe{{name: "normal update"}, {name: "degraded update"}, {name: "surviving-block read"},
			{name: "lost-block read, settled range"}, {name: "lost-block read, pending range"}}
		probe := func(i int, fn func(pp *sim.Proc) error) {
			c.Env.Go(probes[i].name, func(pp *sim.Proc) {
				if err := fn(pp); err != nil {
					t.Errorf("%s: %v", probes[i].name, err)
					return
				}
				probes[i].doneAt, probes[i].done = pp.Now(), true
			})
		}
		write := func(pp *sim.Proc, off int64) error {
			buf := make([]byte, 1024)
			rand.New(rand.NewSource(off)).Read(buf)
			if err := cl.Update(pp, ino, off, buf); err != nil {
				return err
			}
			copy(content[off:], buf)
			return nil
		}
		read := func(pp *sim.Proc, off int64) error {
			got, err := cl.Read(pp, ino, off, 1024)
			if err == nil && !bytes.Equal(got, content[off:off+1024]) {
				err = fmt.Errorf("stale read at %d", off)
			}
			return err
		}
		probe(0, func(pp *sim.Proc) error { return write(pp, secondHalf(normal, 0)) })
		probe(1, func(pp *sim.Proc) error { return write(pp, secondHalf(lostStripe, updIdx)) })
		probe(2, func(pp *sim.Proc) error { return read(pp, secondHalf(lostStripe, readIdx)) })
		probe(3, func(pp *sim.Proc) error { return read(pp, secondHalf(lostStripe, lostIdx)) })
		probe(4, func(pp *sim.Proc) error {
			err := read(pp, int64(lostStripe)*sw+int64(lostIdx)*bs+pendingOff)
			if err == nil && c.settleFenced(st, sid, pendingOff, pendingOff+1024) {
				err = fmt.Errorf("returned while the settle still held state for its range")
			}
			return err
		})
		// Nothing signals the settle's end; poll for it like a fenced read
		// does, and take its exact end from the report.
		for st.settling {
			p.Sleep(settlePoll)
		}
		blk := wire.BlockID{Ino: ino, Stripe: uint32(lostStripe), Index: uint16(updIdx)}
		if j := c.OSDByID(st.surr[c.PG(blk.StripeID())]).journals[victim]; j == nil || j.blocks[blk] == nil {
			t.Errorf("degraded update of %v is not in its surrogate's journal", blk)
		}
		for rep == nil && !t.Failed() {
			p.Sleep(100 * time.Microsecond)
		}
		if t.Failed() {
			return
		}
		end := start + rep.SettleTime
		for _, pr := range probes[:4] {
			if !pr.done || pr.doneAt >= end {
				t.Errorf("%s: done=%v at %v, want done inside the settle [%v, %v)", pr.name, pr.done, pr.doneAt, start, end)
			}
		}
		if pr := probes[4]; !pr.done && !t.Failed() {
			t.Errorf("%s never returned", pr.name)
		}
		stop = true
		for running > 0 {
			p.Sleep(100 * time.Microsecond)
		}
		if t.Failed() {
			return
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if n, err := c.Scrub(); err != nil || n != stripes {
			t.Errorf("scrub: %d stripes, %v", n, err)
			return
		}
		got, err := cl.Read(p, ino, 0, int64(len(content)))
		if err != nil || !bytes.Equal(got, content) {
			t.Errorf("read-back after recovery differs from the shadow (err %v)", err)
			return
		}
		t.Logf("settle %v..%v (%v); probes %v %v %v %v %v; report gated %v settle %v",
			start, end, end-start, probes[0].doneAt-start, probes[1].doneAt-start, probes[2].doneAt-start,
			probes[3].doneAt-start, probes[4].doneAt-start, rep.GatedTime, rep.SettleTime)
		verified = true
	})
	c.Env.RunTest(t)
	if !verified && !t.Failed() {
		t.Fatal("test body did not complete")
	}
}
