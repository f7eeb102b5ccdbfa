package update

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tsue/internal/logpool"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// held reports whether any extent of bl uses buf itself as its buffer.
func held(bl *logpool.BlockLog, buf []byte) bool {
	if bl == nil {
		return false
	}
	for _, e := range bl.Extents() {
		if &e.Data[0] == &buf[0] {
			return true
		}
	}
	return false
}

// TestMovedParityDeltaIsKeptByReference: the receiving half of the payload-
// ownership rule. A parity delta — wire.ParityDelta on TSUE,
// wire.DeltaAppend{KindParityDelta} on PL and PLR — arrives moved, so the
// log record IS the message's buffer; and PL / PLR turn away a DeltaAppend
// of the other kind, which is what lets them adopt by message type alone.
func TestMovedParityDeltaIsKeptByReference(t *testing.T) {
	payload := func() []byte { return bytes.Repeat([]byte{0x3C}, 256) }
	pblk := wire.BlockID{Ino: 1, Stripe: 0, Index: 4} // parity 0 of RS(4,2)

	t.Run("tsue", func(t *testing.T) {
		h := newFakeHost(t)
		eng, _ := New("tsue", h, Options{Pools: 1})
		ts := eng.(*tsue)
		buf := payload()
		runProc(t, h, func(p *sim.Proc) {
			if _, ok := eng.Handle(p, 2, &wire.ParityDelta{Blk: pblk, Off: 512, Data: buf, Sum: wire.Checksum(buf)}); !ok {
				t.Error("ParityDelta not handled")
			}
			if !held(ts.parity.pools[0].Tail().Lookup(pblk), buf) {
				t.Error("ParityLog copied a moved parity delta")
			}
		})
	})
	for _, name := range []string{"pl", "plr"} {
		name := name
		t.Run(name, func(t *testing.T) {
			h := newFakeHost(t)
			eng, _ := New(name, h, Options{})
			buf := payload()
			runProc(t, h, func(p *sim.Proc) {
				da := &wire.DeltaAppend{Blk: wire.BlockID{Ino: 1, Index: 2}, ParityIdx: 0, Off: 512, Data: buf, Kind: wire.KindParityDelta, Sum: wire.Checksum(buf)}
				if _, ok := eng.Handle(p, 2, da); !ok {
					t.Error("DeltaAppend not handled")
				}
				var recs []plRec
				switch e := eng.(type) {
				case *pl:
					recs = e.records[pblk]
				case *plr:
					recs = e.logs[pblk].recs
				}
				if len(recs) != 1 || &recs[0].delta[0] != &buf[0] {
					t.Errorf("%s copied a moved parity delta (%d records)", name, len(recs))
				}
				wrong := &wire.DeltaAppend{Blk: da.Blk, Off: 0, Data: payload(), Kind: wire.KindDataDelta}
				resp, _ := eng.Handle(p, 2, wrong)
				if err := wire.AckErr(resp, nil); err == nil || !strings.Contains(err.Error(), "unexpected delta kind") {
					t.Errorf("%s accepted a data-delta DeltaAppend: %v", name, resp)
				}
			})
		})
	}
}

// TestCopiedPayloadsAreCopiedByTheirKeeper: the other half. Client bytes, a
// DataLog replica, a data delta (TSUE's DeltaLog, CoRD's collector) and
// PARIX's speculative records all stay their sender's: the engine state
// that keeps them never uses the message's buffer. The end-to-end proof is
// cluster.TestPayloadOwnershipAllEngines; this names the sites.
func TestCopiedPayloadsAreCopiedByTheirKeeper(t *testing.T) {
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 1}
	payload := func() []byte { return bytes.Repeat([]byte{0xA7}, 256) }

	t.Run("tsue", func(t *testing.T) {
		h := newFakeHost(t)
		eng, _ := New("tsue", h, Options{Pools: 1})
		ts := eng.(*tsue)
		client, replica, delta := payload(), payload(), payload()
		runProc(t, h, func(p *sim.Proc) {
			if err := applyUpdate(eng, p, blk, 0, client); err != nil {
				t.Error(err)
			}
			eng.Handle(p, 2, &wire.LogReplica{SrcNode: 2, Blk: blk, Off: 0, Data: replica, Sum: wire.Checksum(replica)})
			eng.Handle(p, 2, &wire.DeltaAppend{Blk: blk, Off: 0, Data: delta, Kind: wire.KindDataDelta, Sum: wire.Checksum(delta)})
			if held(ts.data.pools[0].Tail().Lookup(blk), client) {
				t.Error("DataLog kept the client's buffer")
			}
			if items := ts.replicas[replicaKey{src: 2}]; len(items) != 1 || &items[0].data[0] == &replica[0] {
				t.Errorf("replica store kept the LogReplica buffer (%d items)", len(items))
			}
			if held(ts.delta.pools[0].Tail().Lookup(blk), delta) {
				t.Error("DeltaLog kept a data delta's buffer: the reliability copy shares it")
			}
			// Every forward of the client's bytes carried the sum it came
			// with, and the buffer itself (copying is the receiver's job).
			for _, m := range h.calls {
				if lr, ok := m.(*wire.LogReplica); ok && (lr.Sum != wire.Checksum(client) || &lr.Data[0] != &client[0]) {
					t.Error("LogReplica does not forward the client's bytes and verified sum as they came")
				}
			}
		})
	})
	t.Run("cord", func(t *testing.T) {
		h := newFakeHost(t)
		eng, _ := New("cord", h, Options{})
		delta := payload()
		runProc(t, h, func(p *sim.Proc) {
			eng.Handle(p, 2, &wire.DeltaAppend{Blk: blk, Off: 0, Data: delta, Kind: wire.KindDataDelta, Sum: wire.Checksum(delta)})
			if held(eng.(*cord).pool.Tail().Lookup(blk), delta) {
				t.Error("collector kept a data delta's buffer")
			}
		})
	})
	t.Run("parix", func(t *testing.T) {
		h := newFakeHost(t)
		eng, _ := New("parix", h, Options{})
		px := eng.(*parix)
		nw, orig := payload(), payload()
		runProc(t, h, func(p *sim.Proc) {
			eng.Handle(p, 2, &wire.ParixAppend{Blk: blk, Off: 0, New: nw, Orig: orig, Sum: wire.Checksum(slices.Concat(nw, orig))})
			if held(px.latest[blk], nw) || held(px.orig[blk], orig) {
				t.Error("parity-side log kept a ParixAppend buffer")
			}
		})
	})
}

// TestParixForwardsTheVerifiedSum: PARIX's speculative appends carry the
// client's bytes, so they carry the sum the OSD verified — which is exactly
// the pair sum of (New, no Orig) the receiver checks.
func TestParixForwardsTheVerifiedSum(t *testing.T) {
	h := newFakeHost(t)
	eng, _ := New("parix", h, Options{})
	blk := wire.BlockID{Ino: 1, Stripe: 0, Index: 1}
	data := []byte{1, 2, 3, 4, 5}
	runProc(t, h, func(p *sim.Proc) {
		h.store.Put(p, blk, make([]byte, 4096))
		if err := applyUpdate(eng, p, blk, 8, data); err != nil {
			t.Error(err)
		}
	})
	if len(h.calls) != 4 {
		t.Fatalf("first write sent %d messages, want 2 orig + 2 new", len(h.calls))
	}
	for i, m := range h.calls {
		if err := wire.Verify(m); err != nil {
			t.Errorf("message %d does not verify: %v", i, err)
		}
	}
}
