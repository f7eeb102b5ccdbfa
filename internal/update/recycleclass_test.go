package update

import (
	"testing"
	"time"

	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// classCall is one call the engine made: the message, its destination,
// the calling proc's class, and when it left and was answered.
type classCall struct {
	msg         wire.Msg
	to          wire.NodeID
	class       sim.Class
	sent, acked time.Duration
}

// classHost is a fakeHost over an RS(4,3) stripe on nodes 1..7 that
// records every call with its caller's class.
type classHost struct {
	*fakeHost
	calls []classCall
}

func (h *classHost) Placement(wire.StripeID) []wire.NodeID {
	return []wire.NodeID{1, 2, 3, 4, 5, 6, 7}
}
func (h *classHost) Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error) {
	c := classCall{msg: req, to: to, class: p.Class(), sent: p.Now()}
	resp, err := h.fakeHost.Call(p, to, req)
	c.acked = p.Now()
	h.calls = append(h.calls, c)
	return resp, err
}

// deviceGrants returns the host disk's grants so far, per class.
func (h *classHost) deviceGrants() [sim.NClasses]int64 {
	var g [sim.NClasses]int64
	for c := range g {
		g[c] = h.store.Device().Waits(sim.Class(c)).Grants
	}
	return g
}

// TestTsueBackgroundRecycle: the DeltaLog and ParityLog recyclers run as
// background procs and the DataLog recycler as a foreground one. A
// DeltaLog pass over two stripes sends every folded extent to every one of
// the M parity holders at once, one ParityDelta each, all in flight before
// the first is answered, from background procs. A DataLog pass's device
// I/O and its forwards and UnitDones are foreground; a ParityLog pass's
// device I/O is all background.
func TestTsueBackgroundRecycle(t *testing.T) {
	newEngine := func(t *testing.T) (*classHost, Engine) {
		h := &classHost{fakeHost: newFakeHost(t)}
		h.code = rs.MustNew(4, 3, rs.Vandermonde)
		o := DefaultOptions()
		o.Pools = 1
		eng, err := New("tsue", h, o)
		if err != nil {
			t.Fatal(err)
		}
		return h, eng
	}
	msg := func(i int) []byte { return []byte{byte(i + 1), 7, 7, 7} }

	t.Run("delta-pass-at-once", func(t *testing.T) {
		h, eng := newEngine(t)
		// Two extents per stripe, far apart, so each holder gets two folded
		// extents of each stripe.
		deltas := []struct {
			blk wire.BlockID
			off int64
		}{
			{wire.BlockID{Ino: 1, Stripe: 0, Index: 0}, 0},
			{wire.BlockID{Ino: 1, Stripe: 0, Index: 1}, 1024},
			{wire.BlockID{Ino: 1, Stripe: 1, Index: 2}, 2048},
			{wire.BlockID{Ino: 1, Stripe: 1, Index: 0}, 0},
		}
		runProc(t, h.fakeHost, func(p *sim.Proc) {
			for i, d := range deltas {
				data := msg(i)
				req := &wire.DeltaAppend{Blk: d.blk, Off: d.off, Data: data, Kind: wire.KindDataDelta, Sum: wire.Checksum(data)}
				resp, _ := eng.Handle(p, 2, req)
				if err := wire.AckErr(resp, nil); err != nil {
					t.Error(err)
					return
				}
			}
			if err := eng.Merge(p, All); err != nil {
				t.Error(err)
			}
		})
		var sends []classCall
		perHolder := make(map[wire.NodeID]int)
		for _, c := range h.calls {
			if _, ok := c.msg.(*wire.ParityDelta); ok {
				sends = append(sends, c)
				perHolder[c.to]++
			}
		}
		const stripes, perStripe = 2, 2
		if want := stripes * h.code.M * perStripe; len(sends) != want {
			t.Fatalf("%d ParityDeltas sent, want %d", len(sends), want)
		}
		for holder := wire.NodeID(5); holder <= 7; holder++ {
			if perHolder[holder] != stripes*perStripe {
				t.Errorf("holder %d got %d ParityDeltas, want %d", holder, perHolder[holder], stripes*perStripe)
			}
		}
		firstAck := sends[0].acked
		for _, s := range sends {
			firstAck = min(firstAck, s.acked)
		}
		for _, s := range sends {
			if s.sent != sends[0].sent || s.sent >= firstAck {
				t.Errorf("ParityDelta to %d sent at %v, want at %v with the rest, before the first ack at %v", s.to, s.sent, sends[0].sent, firstAck)
			}
			if s.class != sim.Background {
				t.Errorf("ParityDelta to %d sent from a %v proc, want bg", s.to, s.class)
			}
		}
	})

	t.Run("data-pass-foreground", func(t *testing.T) {
		h, eng := newEngine(t)
		blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 1}
		var before, after [sim.NClasses]int64
		var from int
		runProc(t, h.fakeHost, func(p *sim.Proc) {
			if err := h.store.Put(p, blk, make([]byte, 4096)); err != nil {
				t.Error(err)
				return
			}
			for i, off := range []int64{0, 1024, 2048} {
				if err := applyUpdate(eng, p, blk, off, msg(i)); err != nil {
					t.Error(err)
					return
				}
			}
			before, from = h.deviceGrants(), len(h.calls)
			if err := eng.Merge(p, All); err != nil {
				t.Error(err)
			}
			after = h.deviceGrants()
		})
		if n := after[sim.Foreground] - before[sim.Foreground]; n == 0 {
			t.Error("the DataLog pass did no foreground device I/O")
		}
		if n := after[sim.Background] - before[sim.Background]; n != 0 {
			t.Errorf("the DataLog pass did %d background device I/Os, want 0", n)
		}
		fwds := 0
		for _, c := range h.calls[from:] {
			if _, ok := c.msg.(*wire.DeltaAppend); ok {
				fwds++
			}
			if c.class != sim.Foreground {
				t.Errorf("%s to %d sent from a %v proc, want fg", wire.Name(c.msg), c.to, c.class)
			}
		}
		if fwds == 0 {
			t.Error("the DataLog pass forwarded no DeltaAppend")
		}
	})

	t.Run("parity-pass-background", func(t *testing.T) {
		h, eng := newEngine(t)
		ts := eng.(*tsue)
		s := wire.StripeID{Ino: 1}
		var before, after [sim.NClasses]int64
		runProc(t, h.fakeHost, func(p *sim.Proc) {
			for j := 0; j < h.code.M; j++ {
				if err := h.store.Put(p, ts.parityBlock(s, j), make([]byte, 4096)); err != nil {
					t.Error(err)
					return
				}
				data := msg(j)
				req := &wire.ParityDelta{Blk: ts.parityBlock(s, j), Off: 512, Data: data, Sum: wire.Checksum(data)}
				resp, _ := eng.Handle(p, 2, req)
				if err := wire.AckErr(resp, nil); err != nil {
					t.Error(err)
					return
				}
			}
			before = h.deviceGrants()
			if err := eng.Merge(p, All); err != nil {
				t.Error(err)
			}
			after = h.deviceGrants()
		})
		if n := after[sim.Foreground] - before[sim.Foreground]; n != 0 {
			t.Errorf("the ParityLog pass did %d foreground device I/Os, want 0", n)
		}
		// One read and one write per parity block.
		if n := after[sim.Background] - before[sim.Background]; n != int64(2*h.code.M) {
			t.Errorf("the ParityLog pass did %d background device I/Os, want %d", n, 2*h.code.M)
		}
	})
}
