package update

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tsue/internal/blockstore"
	"tsue/internal/device"
	"tsue/internal/logpool"
	"tsue/internal/obs"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// fakeHost is a single-node Host for engine-local unit tests: peer calls
// are recorded and acked without a network.
type fakeHost struct {
	env   *sim.Env
	store *blockstore.Store
	code  *rs.Code
	calls []wire.Msg
}

func newFakeHost(t *testing.T) *fakeHost {
	t.Helper()
	env := sim.NewEnv()
	env.SetTieSalt(*tieSalt)
	d := device.New(env, "d", device.SSD, device.SSDParams())
	return &fakeHost{
		env:   env,
		store: blockstore.New(d, 4096),
		code:  rs.MustNew(4, 2, rs.Vandermonde),
	}
}

func (h *fakeHost) NodeID() wire.NodeID      { return 1 }
func (h *fakeHost) Env() *sim.Env            { return h.env }
func (h *fakeHost) Store() *blockstore.Store { return h.store }
func (h *fakeHost) Code() *rs.Code           { return h.code }
func (h *fakeHost) Placement(wire.StripeID) []wire.NodeID {
	return []wire.NodeID{1, 2, 3, 4, 5, 6}
}
func (h *fakeHost) Peers() []wire.NodeID   { return []wire.NodeID{1, 2, 3, 4} }
func (h *fakeHost) Alive(wire.NodeID) bool { return true }
func (h *fakeHost) Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error) {
	h.calls = append(h.calls, req)
	p.Sleep(10 * time.Microsecond)
	return wire.OK, nil
}
func (h *fakeHost) Tracer() *obs.Tracer { return nil }

// applyUpdate calls eng.Update the way OSD.handle does: with the sum of the
// bytes it has just verified.
func applyUpdate(eng Engine, p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	return eng.Update(p, blk, off, data, wire.Checksum(data))
}

func runProc(t *testing.T, h *fakeHost, fn func(p *sim.Proc)) {
	t.Helper()
	h.env.Go("t", func(p *sim.Proc) { fn(p) })
	h.env.RunTest(t)
	h.env.Close()
}

func TestFactoryKnowsAllNames(t *testing.T) {
	h := newFakeHost(t)
	for _, name := range Names() {
		e, err := New(name, h, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("engine %q reports name %q", name, e.Name())
		}
	}
	if _, err := New("bogus", h, Options{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	h.env.Close()
}

func TestDefaultsFilledIn(t *testing.T) {
	o := Options{}.withDefaults()
	if o.UnitSize == 0 || o.MaxUnits == 0 || o.Pools == 0 || o.Copies == 0 ||
		o.RecycleThreshold == 0 || o.PLRReserve == 0 || o.CordBufferSize == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
}

// TestPLUpdateSendsMDeltas: PL must forward one parity delta per parity
// block, carrying coef-multiplied data.
func TestPLUpdateSendsMDeltas(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("pl", h, Options{})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 2}
	runProc(t, h, func(p *sim.Proc) {
		if err := h.store.Put(p, blk, make([]byte, 4096)); err != nil {
			t.Error(err)
			return
		}
		newData := []byte{9, 9, 9, 9}
		if err := applyUpdate(eng, p, blk, 100, newData); err != nil {
			t.Error(err)
			return
		}
	})
	if len(h.calls) != 2 {
		t.Fatalf("sent %d messages, want M=2", len(h.calls))
	}
	for j, m := range h.calls {
		da, ok := m.(*wire.DeltaAppend)
		if !ok {
			t.Fatalf("msg %d is %T", j, m)
		}
		if da.Kind != wire.KindParityDelta {
			t.Fatalf("msg %d kind %d", j, da.Kind)
		}
		// Old data was zero, so delta == new data; parity delta = coef*new.
		want := h.code.Coef(int(da.ParityIdx), 2)
		got := da.Data[0]
		exp := mulDelta(h.code, int(da.ParityIdx), 2, []byte{9})[0]
		if got != exp {
			t.Fatalf("parity %d delta byte %d, want coef(%d)*9=%d", da.ParityIdx, got, want, exp)
		}
	}
}

// TestCordSendsSingleMessage: CoRD ships one delta to the collector
// regardless of M.
func TestCordSendsSingleMessage(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("cord", h, Options{})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	runProc(t, h, func(p *sim.Proc) {
		h.store.Put(p, blk, make([]byte, 4096))
		if err := applyUpdate(eng, p, blk, 0, []byte{1, 2, 3}); err != nil {
			t.Error(err)
		}
	})
	if len(h.calls) != 1 {
		t.Fatalf("cord sent %d messages, want 1", len(h.calls))
	}
	da := h.calls[0].(*wire.DeltaAppend)
	if da.Kind != wire.KindDataDelta {
		t.Fatal("cord must ship raw data deltas")
	}
}

// TestParixFirstWriteTwoRounds: the first overwrite of a location ships
// orig + new (2M messages), repeats ship only new (M messages).
func TestParixFirstWriteTwoRounds(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("parix", h, Options{})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 1}
	runProc(t, h, func(p *sim.Proc) {
		h.store.Put(p, blk, make([]byte, 4096))
		if err := applyUpdate(eng, p, blk, 0, []byte{1}); err != nil {
			t.Error(err)
			return
		}
		first := len(h.calls)
		if first != 4 { // M=2 orig msgs + M=2 new msgs
			t.Errorf("first write sent %d msgs, want 4", first)
		}
		if err := applyUpdate(eng, p, blk, 0, []byte{2}); err != nil {
			t.Error(err)
			return
		}
		if len(h.calls)-first != 2 { // repeat: M new msgs only
			t.Errorf("repeat write sent %d msgs, want 2", len(h.calls)-first)
		}
	})
}

// TestTsueFrontEndSequentialOnly: a TSUE update must not touch the data
// block (no random block I/O on the synchronous path), must replicate
// Copies-1 times, and must start its DataLog write and its replica at the
// same instant. A replica holder appends overlapping replicas to its
// replica log as one sequential stream, in arrival order.
func TestTsueFrontEndSequentialOnly(t *testing.T) {
	h := &pipeHost{fakeHost: newFakeHost(t)}
	eng, _ := New("tsue", h, Options{Copies: 2, Pools: 1})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	var start time.Duration
	var before device.Stats
	runProc(t, h.fakeHost, func(p *sim.Proc) {
		h.store.Put(p, blk, make([]byte, 4096))
		before = h.store.Device().Stats()
		start = p.Now()
		if err := applyUpdate(eng, p, blk, 0, []byte{5, 5}); err != nil {
			t.Error(err)
			return
		}
		after := h.store.Device().Stats()
		if after.ReadOps != before.ReadOps {
			t.Error("TSUE front end performed a read")
		}
		if after.RandWriteOps != before.RandWriteOps+1 {
			// Only the first-touch log append classifies as random (no
			// history); nothing may land on the block zone.
			t.Errorf("unexpected random writes: %d -> %d", before.RandWriteOps, after.RandWriteOps)
		}
		if after.OverwriteOps != before.OverwriteOps {
			t.Error("TSUE front end overwrote in place")
		}
	})
	var reps []pipeSend
	for _, s := range h.sends {
		if _, ok := s.msg.(*wire.LogReplica); ok {
			reps = append(reps, s)
		}
	}
	if len(reps) != 1 {
		t.Fatalf("replicated %d times, want Copies-1=1", len(reps))
	}
	if reps[0].sent != start || reps[0].writes != before.WriteOps+1 {
		t.Errorf("LogReplica sent at %v with %d DataLog write(s) started, want at %v with 1",
			reps[0].sent, reps[0].writes-before.WriteOps, start)
	}

	// The holder side: overlapping replicas, a large one first.
	hh := newFakeHost(t)
	holder, _ := New("tsue", hh, Options{Pools: 1})
	sizes := []int{64 << 10, 16, 4096, 512}
	acked := sim.NewWaitGroup(hh.env)
	acked.Add(len(sizes))
	for i, n := range sizes {
		hh.env.Go("replica", func(p *sim.Proc) {
			data := make([]byte, n)
			req := &wire.LogReplica{SrcNode: 2, Blk: blk, Off: int64(i) * 1024, Data: data, Sum: wire.Checksum(data)}
			resp, _ := holder.Handle(p, 2, req)
			if err := wire.AckErr(resp, nil); err != nil {
				t.Error(err)
			}
			acked.Done()
		})
	}
	var got []int
	hh.env.Go("fetch", func(p *sim.Proc) {
		acked.Wait(p)
		resp, _ := holder.Handle(p, 3, &wire.ReplicaFetch{Node: 2})
		for _, it := range resp.(*wire.ReplicaResp).Items {
			got = append(got, len(it.Data))
		}
	})
	hh.env.RunTest(t)
	hh.env.Close()
	st := hh.store.Device().Stats()
	if st.SeqWriteOps != int64(len(sizes)-1) || st.RandWriteOps != 1 {
		t.Errorf("%d overlapping replicas charged %d sequential and %d random writes, want %d and 1",
			len(sizes), st.SeqWriteOps, st.RandWriteOps, len(sizes)-1)
	}
	if !slices.Equal(got, sizes) {
		t.Errorf("ReplicaFetch returned sizes %v, want arrival order %v", got, sizes)
	}
}

// TestTsueReplicaNamesItsUnit: an update's LogReplica names the unit its
// record landed in, even when a concurrent update rotates a new unit in
// while the first one's DataLog write is in flight — or the replica would
// outlive that unit's UnitDone.
func TestTsueReplicaNamesItsUnit(t *testing.T) {
	h := &pipeHost{fakeHost: newFakeHost(t)}
	eng, _ := New("tsue", h, Options{Copies: 2, Pools: 1, UnitSize: 4096})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	runProc(t, h.fakeHost, func(p *sim.Proc) {
		if err := h.store.Put(p, blk, make([]byte, 4096)); err != nil {
			t.Error(err)
			return
		}
		wg := sim.NewWaitGroup(h.env)
		// The first update fills and seals the active unit; the second
		// lands in the next one.
		for _, n := range []int{4096, 16} {
			wg.Add(1)
			h.env.Go("update", func(up *sim.Proc) {
				if err := applyUpdate(eng, up, blk, 0, make([]byte, n)); err != nil {
					t.Error(err)
				}
				wg.Done()
			})
		}
		wg.Wait(p)
		if err := eng.Merge(p, All); err != nil {
			t.Error(err)
		}
	})
	unitOf := make(map[int]uint64)
	var done []uint64
	for _, s := range h.sends {
		switch m := s.msg.(type) {
		case *wire.LogReplica:
			unitOf[len(m.Data)] = m.UnitSeq
		case *wire.UnitDone:
			done = append(done, m.UnitSeq)
		}
	}
	if len(done) != 2 {
		t.Fatalf("sent %d UnitDone, want 2", len(done))
	}
	if unitOf[4096] != done[0] || unitOf[16] != done[1] {
		t.Errorf("replicas name units %d and %d, want %d and %d (the units their records landed in)",
			unitOf[4096], unitOf[16], done[0], done[1])
	}
}

// TestTsueReadCacheServesFromLog: with the update still in the DataLog, a
// fully covered read must not touch the device.
func TestTsueReadCacheServesFromLog(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("tsue", h, Options{Pools: 1})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	runProc(t, h, func(p *sim.Proc) {
		h.store.Put(p, blk, make([]byte, 4096))
		if err := applyUpdate(eng, p, blk, 200, []byte{7, 8, 9}); err != nil {
			t.Error(err)
			return
		}
		before := h.store.Device().Stats().ReadOps
		got, err := eng.Read(p, blk, 200, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if got[0] != 7 || got[1] != 8 || got[2] != 9 {
			t.Errorf("read %v", got)
		}
		if h.store.Device().Stats().ReadOps != before {
			t.Error("covered read touched the device")
		}
		// Partially covered read must hit the device and overlay.
		got, err = eng.Read(p, blk, 198, 6)
		if err != nil {
			t.Error(err)
			return
		}
		if got[2] != 7 || got[5] != 0 {
			t.Errorf("overlay read %v", got)
		}
		if h.store.Device().Stats().ReadOps == before {
			t.Error("partial read skipped the device")
		}
	})
}

// TestTsueExtractBlockLogServesFromIndex: a migrating block's DataLog
// records leave from the DataLog's memory index, which also serves Read, so
// the extraction charges no device read. The extents come back merged, and
// once extracted the log no longer covers the block.
func TestTsueExtractBlockLogServesFromIndex(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("tsue", h, Options{Pools: 1})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	runProc(t, h, func(p *sim.Proc) {
		h.store.Put(p, blk, make([]byte, 4096))
		for _, u := range []struct {
			off  int64
			data []byte
		}{{200, []byte{1, 2, 3}}, {202, []byte{9, 8}}, {1000, []byte{5}}} {
			if err := applyUpdate(eng, p, blk, u.off, u.data); err != nil {
				t.Error(err)
				return
			}
		}
		before := h.store.Device().Stats()
		items := eng.(LogMigrator).ExtractBlockLog(p, blk)
		after := h.store.Device().Stats()
		if after.ReadOps != before.ReadOps || after.ReadBytes != before.ReadBytes {
			t.Errorf("extraction read the device: %d ops / %d bytes, want none",
				after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes)
		}
		want := []wire.ReplicaItem{
			{Blk: blk, Off: 200, Data: []byte{1, 2, 9, 8}},
			{Blk: blk, Off: 1000, Data: []byte{5}},
		}
		if fmt.Sprint(items) != fmt.Sprint(want) {
			t.Errorf("extracted %v, want %v", items, want)
		}
		if again := eng.(LogMigrator).ExtractBlockLog(p, blk); len(again) != 0 {
			t.Errorf("second extraction returned %v, want nothing", again)
		}
		// The records left with the block: a read of the range now falls
		// through to the raw block on the device.
		got, err := eng.Read(p, blk, 200, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, make([]byte, 4)) {
			t.Errorf("read after extraction %v, want the raw block's zeros", got)
		}
		if h.store.Device().Stats().ReadOps == after.ReadOps {
			t.Error("read after extraction did not reach the device")
		}
	})
}

// paritySend is one ParityDelta as it left the host.
type paritySend struct {
	to  wire.NodeID
	at  time.Duration
	off int64
}

// parityHost is a fakeHost that records the destination and sim send time
// of every ParityDelta, and reports one node (if non-zero) dead.
type parityHost struct {
	*fakeHost
	dead  wire.NodeID
	sends []paritySend
}

func (h *parityHost) Alive(id wire.NodeID) bool { return id != h.dead }
func (h *parityHost) Placement(wire.StripeID) []wire.NodeID {
	return []wire.NodeID{1, 2, 3, 4, 5, 6, 7}
}
func (h *parityHost) Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error) {
	if pd, ok := req.(*wire.ParityDelta); ok {
		h.sends = append(h.sends, paritySend{to: to, at: p.Now(), off: pd.Off})
	}
	return h.fakeHost.Call(p, to, req)
}

// TestTsueParityFanout: both TSUE sites that feed the ParityLogs — the
// DeltaLog recycle and the direct path — send to a stripe's M parity
// holders concurrently. Every live holder's first send starts at the same
// instant, each holder receives its extents in fold (offset) order, and a
// dead holder gets nothing while the others get everything.
func TestTsueParityFanout(t *testing.T) {
	offs := []int64{0, 1024, 2048}
	for _, deltaLog := range []bool{true, false} {
		for _, dead := range []wire.NodeID{0, 6} {
			t.Run(fmt.Sprintf("deltalog=%v/dead=%d", deltaLog, dead), func(t *testing.T) {
				h := &parityHost{fakeHost: newFakeHost(t), dead: dead}
				h.code = rs.MustNew(4, 3, rs.Vandermonde)
				o := DefaultOptions()
				o.Pools = 1
				o.NoDeltaLog = !deltaLog
				eng, err := New("tsue", h, o)
				if err != nil {
					t.Fatal(err)
				}
				blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 1}
				runProc(t, h.fakeHost, func(p *sim.Proc) {
					if err := h.store.Put(p, blk, make([]byte, 4096)); err != nil {
						t.Error(err)
						return
					}
					for i, off := range offs {
						data := []byte{byte(i + 1), 7, 7, 7}
						var err error
						if deltaLog {
							req := &wire.DeltaAppend{Blk: blk, Off: off, Data: data, Kind: wire.KindDataDelta, Sum: wire.Checksum(data)}
							resp, _ := eng.Handle(p, 2, req)
							err = wire.AckErr(resp, nil)
						} else {
							err = applyUpdate(eng, p, blk, off, data)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
					if err := eng.Merge(p, All); err != nil {
						t.Error(err)
					}
				})
				first := time.Duration(-1)
				for _, holder := range []wire.NodeID{5, 6, 7} {
					var got []paritySend
					for _, s := range h.sends {
						if s.to == holder {
							got = append(got, s)
						}
					}
					if holder == dead {
						if len(got) != 0 {
							t.Errorf("dead holder %d was sent %d parity deltas", holder, len(got))
						}
						continue
					}
					if len(got) != len(offs) {
						t.Fatalf("holder %d got %d parity deltas, want %d", holder, len(got), len(offs))
					}
					for i, s := range got {
						if s.off != offs[i] {
							t.Errorf("holder %d extent %d at offset %d, want %d (fold order)", holder, i, s.off, offs[i])
						}
					}
					if first < 0 {
						first = got[0].at
					} else if got[0].at != first {
						t.Errorf("holder %d first send at %v, want %v with the other holders", holder, got[0].at, first)
					}
				}
			})
		}
	}
}

// pipeSend is one call the engine made, as the host saw it: when it left,
// how many device writes had started by then, when it was answered, and
// how many device reads — one per read-modify-write — had started by the
// answer.
type pipeSend struct {
	msg         wire.Msg
	to          wire.NodeID
	sent, acked time.Duration
	writes      int64
	reads       int64
	failed      bool
}

// pipeHost is a fakeHost that records every call, and can kill one node
// (the callee, or this node) just as the kill-th primary DeltaAppend is
// sent: that call fails without reaching the DeltaLog. Every other primary
// DeltaAppend takes slow longer than a plain call.
type pipeHost struct {
	*fakeHost
	dead      wire.NodeID
	kill      int
	killSelf  bool
	slow      time.Duration
	primaries int
	sends     []pipeSend
}

func (h *pipeHost) Alive(id wire.NodeID) bool { return id != h.dead }
func (h *pipeHost) Call(p *sim.Proc, to wire.NodeID, req wire.Msg) (wire.Msg, error) {
	s := pipeSend{msg: req, to: to, sent: p.Now(), writes: h.store.Device().Stats().WriteOps}
	if da, ok := req.(*wire.DeltaAppend); ok && !da.Replica {
		if h.primaries++; h.primaries == h.kill {
			h.dead = to
			if h.killSelf {
				h.dead = h.NodeID()
			}
			s.failed = true
		} else {
			p.Sleep(h.slow)
		}
	}
	resp, err := h.fakeHost.Call(p, to, req)
	if s.failed {
		resp, err = nil, errors.New("node down")
	}
	s.acked, s.reads = p.Now(), h.store.Device().Stats().ReadOps
	h.sends = append(h.sends, s)
	return resp, err
}

// TestTsueDataRecyclePipeline: a DataLog pass read-modify-writes its
// extents one after another, and each extent's forward leaves as soon as
// its RMW is done, without waiting for the previous forward's acks: the
// second primary DeltaAppend is sent before the first is acked. Each
// primary leaves together with its reliability copy. A DeltaLog holder that
// dies mid-forward sends that extent (and the rest) down the direct path.
// The UnitDones leave together, and only after the last forward is acked.
// When this node dies mid-forward, no RMW and no forward starts once the
// failed forward has returned, and no UnitDone is sent; a forward already
// sent may still land.
func TestTsueDataRecyclePipeline(t *testing.T) {
	a := wire.BlockID{Ino: 1, Stripe: 0, Index: 0}
	b := wire.BlockID{Ino: 1, Stripe: 0, Index: 1}
	type ext struct {
		blk wire.BlockID
		off int64
	}
	cmpExt := func(x, y ext) int {
		if x.blk.Index != y.blk.Index {
			return int(x.blk.Index) - int(y.blk.Index)
		}
		return int(x.off - y.off)
	}
	appended := []ext{{b, 3072}, {b, 1024}, {a, 2048}, {b, 512}, {a, 0}}
	merge := slices.Clone(appended) // the RMW order
	slices.SortFunc(merge, cmpExt)
	for _, tc := range []struct {
		name     string
		kill     int
		killSelf bool
		primary  int     // primary DeltaAppends sent (including a failed one)
		copies   int     // reliability copies sent
		rmws     int     // read-modify-writes run
		direct   []int64 // offsets sent straight to the ParityLogs
	}{
		{name: "live", primary: 5, copies: 5, rmws: 5},
		// The failed primary's copy left with it.
		{name: "holder-dies", kill: 2, primary: 2, copies: 2, rmws: 5, direct: []int64{512, 1024, 2048, 3072}},
		// The third RMW is under way when the failed forward returns; the
		// fourth never starts.
		{name: "self-dies", kill: 2, killSelf: true, primary: 2, copies: 2, rmws: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &pipeHost{fakeHost: newFakeHost(t), kill: tc.kill, killSelf: tc.killSelf, slow: time.Millisecond}
			o := DefaultOptions()
			o.Pools = 1
			o.Copies = 3 // two UnitDones for the pass's one unit
			eng, err := New("tsue", h, o)
			if err != nil {
				t.Fatal(err)
			}
			var base int64
			runProc(t, h.fakeHost, func(p *sim.Proc) {
				for _, blk := range []wire.BlockID{a, b} {
					if err := h.store.Put(p, blk, make([]byte, 4096)); err != nil {
						t.Error(err)
						return
					}
				}
				for i, e := range appended {
					if err := applyUpdate(eng, p, e.blk, e.off, []byte{byte(i + 1), 7, 7, 7}); err != nil {
						t.Error(err)
						return
					}
				}
				h.sends = nil
				base = h.store.Device().Stats().ReadOps
				if err := eng.Merge(p, All); err != nil {
					t.Error(err)
				}
			})
			var primary, copies, unitDone []pipeSend
			var direct []int64
			var lastFwd time.Duration
			for _, s := range h.sends {
				switch m := s.msg.(type) {
				case *wire.DeltaAppend:
					if m.Replica {
						copies = append(copies, s)
					} else {
						primary = append(primary, s)
					}
				case *wire.ParityDelta:
					if s.to != 6 {
						t.Errorf("ParityDelta at %d sent to node %d, want only the live parity holder 6", m.Off, s.to)
					}
					direct = append(direct, m.Off)
				case *wire.UnitDone:
					unitDone = append(unitDone, s)
					continue
				}
				lastFwd = max(lastFwd, s.acked)
			}
			// h.sends is in ack order; the primaries go in send order.
			slices.SortStableFunc(primary, func(x, y pipeSend) int { return cmp.Compare(x.sent, y.sent) })
			exts := func(ss []pipeSend) []ext {
				var out []ext
				for _, s := range ss {
					m := s.msg.(*wire.DeltaAppend)
					out = append(out, ext{m.Blk, m.Off})
				}
				slices.SortFunc(out, cmpExt)
				return out
			}
			if got, want := exts(primary), merge[:tc.primary]; !slices.Equal(got, want) {
				t.Errorf("primary DeltaAppends for %v, want %v", got, want)
			}
			if got, want := exts(copies), merge[:tc.copies]; !slices.Equal(got, want) {
				t.Errorf("reliability copies for %v, want %v", got, want)
			}
			sentAt := make(map[ext]time.Duration) // primaries' send instants
			for _, s := range primary {
				m := s.msg.(*wire.DeltaAppend)
				sentAt[ext{m.Blk, m.Off}] = s.sent
			}
			for _, s := range copies {
				m := s.msg.(*wire.DeltaAppend)
				if at, ok := sentAt[ext{m.Blk, m.Off}]; !ok || at != s.sent {
					t.Errorf("copy of %v at %d sent at %v, want with its primary at %v", m.Blk, m.Off, s.sent, at)
				}
			}
			slices.Sort(direct)
			if !slices.Equal(direct, tc.direct) {
				t.Errorf("direct-path extents %v, want %v", direct, tc.direct)
			}
			if len(primary) < 2 {
				t.Fatalf("%d DeltaAppend(s) sent, want at least 2", len(primary))
			}
			if primary[1].sent >= primary[0].acked {
				t.Errorf("second DeltaAppend sent at %v, want before the first is acked at %v", primary[1].sent, primary[0].acked)
			}
			if rmws := primary[0].reads - base; rmws < 2 {
				t.Errorf("%d read-modify-write(s) started by the first DeltaAppend's ack, want the second extent's too", rmws)
			}
			reads := h.store.Device().Stats().ReadOps - base
			if reads != int64(tc.rmws) {
				t.Errorf("%d read-modify-write(s) run, want %d", reads, tc.rmws)
			}
			if tc.killSelf {
				// The death is seen when the failed forward returns.
				i := slices.IndexFunc(primary, func(s pipeSend) bool { return s.failed })
				if i < 0 {
					t.Fatal("no DeltaAppend failed")
				}
				seen := primary[i]
				for _, s := range h.sends {
					if s.sent > seen.acked {
						t.Errorf("%s sent at %v, after this node's death was seen at %v", wire.Name(s.msg), s.sent, seen.acked)
					}
				}
				if seenReads := seen.reads - base; reads != seenReads {
					t.Errorf("%d read-modify-write(s) started after this node's death was seen (%d before)", reads-seenReads, seenReads)
				}
				if len(unitDone) != 0 {
					t.Errorf("a dead node sent %d UnitDone", len(unitDone))
				}
				return
			}
			if len(unitDone) != o.Copies-1 {
				t.Fatalf("sent %d UnitDone, want %d", len(unitDone), o.Copies-1)
			}
			for _, s := range unitDone {
				if s.sent != unitDone[0].sent {
					t.Errorf("UnitDones sent at %v and %v, want at once", unitDone[0].sent, s.sent)
				}
				if s.sent < lastFwd {
					t.Errorf("UnitDone sent at %v, before the last forward was acked at %v", s.sent, lastFwd)
				}
			}
		})
	}
}

// TestTsueParityRecycleConcurrent: a ParityLog pass applies its merged
// extents at once. The pass holds three disjoint extents on each parity
// block, two of them inside one 4 KiB granule. All their device reads start
// together; each parity block ends up as its old bytes XOR the deltas,
// with every granule's sum intact; and the stripe re-encodes to the stored
// parity, which is what Scrub checks.
func TestTsueParityRecycleConcurrent(t *testing.T) {
	h := newFakeHost(t)
	const bs = 64 << 10
	h.store = blockstore.New(h.store.Device(), bs)
	eng, err := New("tsue", h, Options{Pools: 1, Copies: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := eng.(*tsue)
	code := h.code
	s := wire.StripeID{Ino: 1}
	rng := rand.New(rand.NewSource(7))
	shards := make([][]byte, code.K+code.M)
	for i := range shards {
		shards[i] = make([]byte, bs)
		if i < code.K {
			rng.Read(shards[i])
		}
	}
	if err := code.Encode(shards[:code.K], shards[code.K:]); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, code.M) // each parity block XOR its deltas
	for j := range want {
		want[j] = slices.Clone(shards[code.K+j])
	}
	// Rewritten ranges of data shard 1: two inside granule 0, one in
	// granule 2.
	ranges := [][2]int{{100, 700}, {2000, 1500}, {9000, 3000}}
	var reads []time.Duration // when each device read started, to 1 µs
	done := false
	h.env.Go("watch", func(p *sim.Proc) {
		var seen int64
		for !done {
			for n := h.store.Device().Stats().ReadOps; seen < n; seen++ {
				reads = append(reads, p.Now())
			}
			p.Sleep(time.Microsecond)
		}
	})
	runProc(t, h, func(p *sim.Proc) {
		defer func() { done = true }()
		for j := 0; j < code.M; j++ {
			if err := h.store.Put(p, ts.parityBlock(s, j), slices.Clone(shards[code.K+j])); err != nil {
				t.Error(err)
				return
			}
		}
		for _, r := range ranges {
			off, n := r[0], r[1]
			data, delta := make([]byte, n), make([]byte, n)
			rng.Read(data)
			rs.DataDelta(delta, data, shards[1][off:off+n])
			copy(shards[1][off:], data)
			for j := 0; j < code.M; j++ {
				pd := mulDelta(code, j, 1, delta)
				rs.ApplyParityDelta(want[j][off:off+n], pd)
				req := &wire.ParityDelta{Blk: ts.parityBlock(s, j), Off: int64(off), Data: pd, Sum: wire.Checksum(pd)}
				resp, _ := eng.Handle(p, 2, req)
				if err := wire.AckErr(resp, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if err := eng.Merge(p, All); err != nil {
			t.Error(err)
		}
	})
	st := ts.parity.stats
	if n := len(ranges) * code.M; st.Units != 1 || st.RecycleN != int64(n) || len(reads) != n {
		t.Fatalf("%d pass(es), %d extents recycled, %d device reads; want 1 pass, %d and %d", st.Units, st.RecycleN, len(reads), n, n)
	}
	if spread := reads[len(reads)-1] - reads[0]; spread >= device.SSDParams().SeqReadLat {
		t.Errorf("the pass's device reads started over %v, want all before the first could finish", spread)
	}
	if err := code.Encode(shards[:code.K], shards[code.K:]); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < code.M; j++ {
		blk := ts.parityBlock(s, j)
		got, _ := h.store.Peek(blk)
		if !bytes.Equal(got, want[j]) {
			t.Errorf("parity %d is not its old bytes XOR its deltas", j)
		}
		if !bytes.Equal(got, shards[code.K+j]) {
			t.Errorf("parity %d differs from the re-encoded data", j)
		}
		if !h.store.VerifyStored(blk) {
			t.Errorf("parity %d fails its granule checksums", j)
		}
	}
}

// TestTsueSettleSealsIdlePoolsOnly: Merge(Failed(0)) force-seals a ParityLog pool's
// active unit only while the pool has no sealed unit queued or recycling.
// The recycler is busy on a full unit when Settle starts, and upstream
// parity deltas keep arriving during its pass, as they do from other nodes'
// recycles during a settle barrier. A watcher checks that no force-sealed
// unit ever sits behind an older pending one. Settle seals at most once per
// recycle pass, plus once at its start, and afterwards the stripe's parity
// equals its re-encoded data.
func TestTsueSettleSealsIdlePoolsOnly(t *testing.T) {
	h := newFakeHost(t)
	const bs = 64 << 10
	h.store = blockstore.New(h.store.Device(), bs)
	eng, err := New("tsue", h, Options{Pools: 1, UnitSize: 8 << 10, MaxUnits: 8, RecycleBatch: 1, Copies: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := eng.(*tsue)
	pool := ts.parity.pools[0]
	code := h.code
	s := wire.StripeID{Ino: 1}
	rng := rand.New(rand.NewSource(5))
	// The data shards live here; only the parity blocks are stored.
	shards := make([][]byte, code.K+code.M)
	for i := range shards {
		shards[i] = make([]byte, bs)
		if i < code.K {
			rng.Read(shards[i])
		}
	}
	if err := code.Encode(shards[:code.K], shards[code.K:]); err != nil {
		t.Fatal(err)
	}
	// update rewrites n random bytes of a data shard, as the shard's holder
	// would, and sends this node the two parity deltas.
	update := func(p *sim.Proc, n int) {
		i := rng.Intn(code.K)
		off := rng.Intn(bs - n)
		data, delta := make([]byte, n), make([]byte, n)
		rng.Read(data)
		rs.DataDelta(delta, data, shards[i][off:off+n])
		copy(shards[i][off:], data)
		for j := 0; j < code.M; j++ {
			pd := mulDelta(code, j, i, delta)
			req := &wire.ParityDelta{Blk: ts.parityBlock(s, j), Off: int64(off), Data: pd, Sum: wire.Checksum(pd)}
			resp, _ := eng.Handle(p, 2, req)
			if err := wire.AckErr(resp, nil); err != nil {
				t.Error(err)
			}
		}
	}
	// behind maps each unit found force-sealed behind an older pending unit
	// to when it was first seen.
	behind := make(map[uint64]time.Duration)
	settled := false
	h.env.Go("watch", func(p *sim.Proc) {
		pending := func(u *logpool.Unit) bool { return u.State == logpool.Recyclable || u.State == logpool.Recycling }
		for !settled {
			units := pool.Units()
			for i, u := range units {
				if !pending(u) || u.Appended >= pool.UnitSize {
					continue // not force-sealed
				}
				if _, seen := behind[u.Seq]; !seen && slices.ContainsFunc(units[:i], pending) {
					behind[u.Seq] = p.Now()
				}
			}
			p.Sleep(time.Microsecond)
		}
	})
	runProc(t, h, func(p *sim.Proc) {
		defer func() { settled = true }()
		for j := 0; j < code.M; j++ {
			if err := h.store.Put(p, ts.parityBlock(s, j), slices.Clone(shards[code.K+j])); err != nil {
				t.Error(err)
				return
			}
		}
		// Fill and seal the first unit, and start the next: the recycler is
		// now busy on a full unit and the active one holds a few deltas.
		for pool.Stats().Seals == 0 || pool.Active() == nil || pool.Active().Appended == 0 {
			update(p, 128)
		}
		if !pool.PendingSealed() {
			t.Error("the recycler is idle before Settle")
			return
		}
		seals, passes := pool.Stats().Seals, ts.parity.stats.Units
		feed := sim.NewWaitGroup(h.env)
		feed.Add(1)
		h.env.Go("upstream", func(up *sim.Proc) {
			for i := 0; i < 40; i++ {
				update(up, 128)
				up.Sleep(400 * time.Microsecond)
			}
			feed.Done()
		})
		if err := eng.Merge(p, Failed(0)); err != nil {
			t.Error(err)
		}
		feed.Wait(p)
		for eng.Pending(Failed(0)) {
			if err := eng.Merge(p, Failed(0)); err != nil {
				t.Error(err)
			}
		}
		seals, passes = pool.Stats().Seals-seals, ts.parity.stats.Units-passes
		if seals > passes+1 {
			t.Errorf("Settle sealed %d units over %d recycle passes, want at most one per pass plus one", seals, passes)
		}
		if err := code.Encode(shards[:code.K], shards[code.K:]); err != nil {
			t.Error(err)
			return
		}
		for j := 0; j < code.M; j++ {
			got, err := h.store.ReadRange(p, ts.parityBlock(s, j), 0, bs)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, shards[code.K+j]) {
				t.Errorf("parity %d differs from the re-encoded data after Settle", j)
			}
		}
	})
	if len(behind) > 0 {
		t.Errorf("Settle force-sealed units behind a pending unit (unit: first seen): %v", behind)
	}
}

func TestFOHasNoLogState(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("fo", h, Options{})
	if eng.Pending(All) || eng.MemBytes() != 0 || eng.PeakMemBytes() != 0 {
		t.Fatal("FO reports log state")
	}
	runProc(t, h, func(p *sim.Proc) {
		if err := eng.Merge(p, All); err != nil {
			t.Error(err)
		}
	})
}

func TestLayerStatsMeans(t *testing.T) {
	ls := LayerStats{AppendN: 4, AppendTime: 8 * time.Microsecond}
	if ls.MeanAppend() != 2*time.Microsecond {
		t.Fatal("mean append wrong")
	}
	if (LayerStats{}).MeanRecycle() != 0 {
		t.Fatal("zero-count mean must be 0")
	}
}
