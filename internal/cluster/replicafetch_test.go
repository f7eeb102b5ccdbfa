package cluster

// The registration's replica fetch goes to every holder at once; these
// tests hold it to the order a holder-by-holder walk in c.OSDs order gives,
// with the lower-id holder's answer arriving last.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// replicaSplit is a TSUE cluster whose victim's DataLog replicas are split
// over several live holders: each phase's updates to the victim's data
// blocks are appended while the phase's nodes are off the fabric, so their
// replicas land on the next live nodes in ring order, as an earlier death
// or a flap that moved the ring successor leaves them.
type replicaSplit struct {
	c       *Cluster
	cl      *Client
	admin   *Client
	ino     uint64
	content []byte
	victim  wire.NodeID
}

// newReplicaSplit writes a drained 8-stripe file and then, for each phase,
// takes the phase's nodes off the fabric, writes two overlapping updates to
// each of the victim's first two data blocks and brings the nodes back.
// Every update is small, so nothing recycles and the replicas stay where
// they landed. It runs on p and reports false after a test error.
func newReplicaSplit(t *testing.T, p *sim.Proc, c *Cluster, phases [][]wire.NodeID) (*replicaSplit, bool) {
	r := &replicaSplit{c: c, cl: c.NewClient(), admin: c.NewClient(), victim: 3}
	rng := rand.New(rand.NewSource(29))
	const stripes = 8
	bs, sw := c.Cfg.BlockSize, c.StripeWidth()
	r.content = make([]byte, stripes*sw)
	rng.Read(r.content)
	var err error
	if r.ino, err = r.cl.Create(p, "f", int64(len(r.content))); err != nil {
		t.Error(err)
		return nil, false
	}
	if err := r.cl.WriteFile(p, r.ino, r.content); err != nil {
		t.Error(err)
		return nil, false
	}
	if err := c.DrainAll(p, r.admin); err != nil {
		t.Error(err)
		return nil, false
	}
	var blocks []int64 // file offsets of the victim's data blocks
	for s := uint32(0); s < stripes && len(blocks) < 2; s++ {
		for i, id := range c.Placement(wire.StripeID{Ino: r.ino, Stripe: s})[:c.Cfg.K] {
			if id == r.victim {
				blocks = append(blocks, int64(s)*sw+int64(i)*bs)
			}
		}
	}
	if len(blocks) < 2 {
		t.Errorf("node %d hosts %d data blocks of the file, want 2", r.victim, len(blocks))
		return nil, false
	}
	for ph, down := range phases {
		for _, id := range down {
			c.Fabric.SetDown(id, true)
		}
		for _, b := range blocks {
			// Each phase overwrites part of the last phase's bytes, so
			// replaying two phases out of order leaves different bytes.
			for _, off := range []int64{int64(ph) * 512, int64(ph)*512 + 256} {
				buf := make([]byte, 1024)
				rng.Read(buf)
				if err := r.cl.Update(p, r.ino, b+off, buf); err != nil {
					t.Errorf("phase %d update: %v", ph, err)
					return nil, false
				}
				copy(r.content[b+off:], buf)
			}
		}
		for _, id := range down {
			c.Fabric.SetDown(id, false)
		}
	}
	return r, true
}

// serialFetch is the holder-by-holder walk: each live holder's answer in
// c.OSDs order.
func (r *replicaSplit) serialFetch(p *sim.Proc) (map[wire.NodeID][]wire.ReplicaItem, []wire.NodeID, error) {
	lists := make(map[wire.NodeID][]wire.ReplicaItem)
	var order []wire.NodeID
	for _, o := range r.c.OSDs {
		if o.id == r.victim || r.c.Fabric.Down(o.id) {
			continue
		}
		resp, err := r.c.Fabric.Call(p, r.admin.id, o.id, &wire.ReplicaFetch{Node: r.victim})
		if err != nil {
			return nil, nil, err
		}
		if rr, ok := resp.(*wire.ReplicaResp); ok && len(rr.Items) > 0 {
			lists[o.id] = rr.Items
			order = append(order, o.id)
		}
	}
	return lists, order, nil
}

// hook holds holder's ReplicaFetch answers for d, records the order in
// which the holders answer, and calls onSettle (if set) at the first
// settle request: the registration has ended, and with no client writing
// the journals hold only its seeds.
func (r *replicaSplit) hook(t *testing.T, holder wire.NodeID, d time.Duration, answered *[]wire.NodeID, onSettle func()) {
	for _, o := range r.c.OSDs {
		h, id := o.handle, o.id
		err := r.c.Fabric.SetHandler(id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			switch m.(type) {
			case *wire.Settle:
				if onSettle != nil {
					onSettle()
					onSettle = nil
				}
			case *wire.ReplicaFetch:
				if id == holder {
					p.Sleep(d)
				}
				resp := h(p, from, m)
				if rr, ok := resp.(*wire.ReplicaResp); ok && len(rr.Items) > 0 {
					*answered = append(*answered, id)
				}
				return resp
			}
			return h(p, from, m)
		})
		if err != nil {
			t.Error(err)
		}
	}
}

func sameItems(a, b []wire.ReplicaItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Blk != b[i].Blk || a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestReplicaFetchKeepsSeedOrder: the victim's replicas are split over its
// ring successor and the node after it, and the successor's (older) answer
// is held until the other's is in. The surrogates' journal indexes after
// the registration must equal the ones a serial fetch in c.OSDs order
// seeds, and the file must read back byte-exact after Recover.
func TestReplicaFetchKeepsSeedOrder(t *testing.T) {
	c := MustNew(degradedConfig("tsue"))
	defer c.Env.Close()
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		r, ok := newReplicaSplit(t, p, c, [][]wire.NodeID{nil, {4}})
		if !ok {
			return
		}
		lists, order, err := r.serialFetch(p)
		if err != nil {
			t.Error(err)
			return
		}
		if fmt.Sprint(order) != "[4 5]" {
			t.Errorf("replicas held by %v, want split over [4 5]", order)
			return
		}
		// The journals as the registration left them, and the ones the
		// serial order seeds.
		var got, want map[wire.NodeID][][]wire.ReplicaItem
		var answered []wire.NodeID
		r.hook(t, 4, time.Millisecond, &answered, func() {
			st := c.degraded[r.victim]
			ref := make(map[wire.NodeID]*journal)
			for _, holder := range order {
				for _, it := range lists[holder] {
					if !st.stripes[it.Blk.StripeID()] {
						continue
					}
					sur := st.surr[c.PG(it.Blk.StripeID())]
					if ref[sur] == nil {
						ref[sur] = &journal{}
					}
					ref[sur].add(it.Blk, it.Off, it.Data)
				}
			}
			got, want = seededIndexes(c, st), make(map[wire.NodeID][][]wire.ReplicaItem)
			for sur, j := range ref {
				want[sur] = j.extents()
			}
		})
		if _, err := c.Recover(p, r.victim, 2, RecoverInterleaved, r.admin); err != nil {
			t.Error(err)
			return
		}
		if fmt.Sprint(answered) != "[5 4]" {
			t.Errorf("holders answered in order %v, want [5 4] (the delayed one last)", answered)
		}
		if len(want) == 0 {
			t.Error("no seeds reached a surrogate journal")
		}
		for sur, w := range want {
			g := got[sur]
			if len(g) != len(w) {
				t.Errorf("surrogate %d: %d blocks in its index, want %d", sur, len(g), len(w))
				continue
			}
			for i := range w {
				if !sameItems(g[i], w[i]) {
					t.Errorf("surrogate %d block %d: index extents differ from the serial order's", sur, i)
				}
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d surrogate journals seeded, want %d", len(got), len(want))
		}
		if err := c.DrainAll(p, r.admin); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Error(err)
			return
		}
		b, err := r.cl.Read(p, r.ino, 0, int64(len(r.content)))
		if err != nil || !bytes.Equal(b, r.content) {
			t.Errorf("read-back after recovery: err %v, equal %v", err, bytes.Equal(b, r.content))
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("test body deadlocked")
	}
}

// seededIndexes returns every seeded surrogate journal's index extents.
func seededIndexes(c *Cluster, st *degradedState) map[wire.NodeID][][]wire.ReplicaItem {
	out := make(map[wire.NodeID][][]wire.ReplicaItem)
	for _, sur := range st.surrogates {
		if j := c.OSDByID(sur).journals[st.failed]; j != nil && len(j.order) > 0 {
			out[sur] = j.extents()
		}
	}
	return out
}

// TestReplicaFetchTieTakesFirstHolder: with Copies = 3 every holder is
// meant to hold the whole stream, and fetchReplicaItems returns the largest
// list, the first one in c.OSDs order on a tie. Three phases with a
// different holder pair each leave holders 4, 5 and 6 with two items apiece
// and no two lists alike; with holder 4's answer held until the others are
// in, the result must still be holder 4's list.
func TestReplicaFetchTieTakesFirstHolder(t *testing.T) {
	cfg := degradedConfig("tsue")
	cfg.EngineOpts.Copies = 3
	c := MustNew(cfg)
	defer c.Env.Close()
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		// Replicas of phase 0 land on 4 and 5, of phase 1 on 5 and 6, of
		// phase 2 on 4 and 6.
		r, ok := newReplicaSplit(t, p, c, [][]wire.NodeID{nil, {4}, {5}})
		if !ok {
			return
		}
		lists, order, err := r.serialFetch(p)
		if err != nil {
			t.Error(err)
			return
		}
		if fmt.Sprint(order) != "[4 5 6]" || len(lists[4]) != len(lists[5]) || len(lists[5]) != len(lists[6]) {
			t.Errorf("replicas held by %v with %d, %d and %d items, want three equal lists on [4 5 6]",
				order, len(lists[4]), len(lists[5]), len(lists[6]))
			return
		}
		if sameItems(lists[4], lists[5]) || sameItems(lists[4], lists[6]) {
			t.Error("holder 4's list equals another holder's: the tie would not show which one was taken")
			return
		}
		var answered []wire.NodeID
		r.hook(t, 4, time.Millisecond, &answered, nil)
		got, err := c.fetchReplicaItems(p, r.victim, r.admin)
		if err != nil {
			t.Error(err)
			return
		}
		if fmt.Sprint(answered) != "[5 6 4]" {
			t.Errorf("holders answered in order %v, want [5 6 4] (the delayed one last)", answered)
		}
		if !sameItems(got, lists[4]) {
			t.Error("fetchReplicaItems did not return the first holder's list on a tie")
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("test body deadlocked")
	}
}
