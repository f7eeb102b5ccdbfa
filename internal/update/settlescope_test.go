package update

import (
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// scopeFailed is the failed node of the settle-scope tests: odd stripes
// have a block on it, even stripes do not.
const scopeFailed wire.NodeID = 9

// scopeHost is a fakeHost whose placement puts odd stripes on scopeFailed.
type scopeHost struct{ *fakeHost }

func (h scopeHost) Placement(s wire.StripeID) []wire.NodeID {
	if s.Stripe%2 == 1 {
		return []wire.NodeID{1, 2, 3, 4, 5, scopeFailed}
	}
	return []wire.NodeID{1, 2, 3, 4, 5, 6}
}

// scopeRecord returns the peer message that leaves one pending record of
// stripe s in the named engine (nil for FO, which keeps no log state): a
// parity delta for PL, PLR and TSUE's ParityLog, a speculative record for
// PARIX and a data delta for CoRD's collector.
func scopeRecord(name string, s uint32) wire.Msg {
	data := make([]byte, 512)
	data[0] = byte(s + 1)
	blk := wire.BlockID{Ino: 1, Stripe: s, Index: 1}
	switch name {
	case "pl", "plr":
		return &wire.DeltaAppend{Blk: blk, Off: 512, Data: data, Kind: wire.KindParityDelta}
	case "parix":
		return &wire.ParixAppend{Blk: blk, Off: 512, New: data, Orig: make([]byte, 512)}
	case "cord":
		return &wire.DeltaAppend{Blk: blk, Off: 512, Data: data, Kind: wire.KindDataDelta}
	case "tsue":
		return &wire.ParityDelta{Blk: wire.BlockID{Ino: 1, Stripe: s, Index: 4}, Off: 512, Data: data}
	}
	return nil
}

// scopeOptions gives every engine logs large enough that nothing recycles
// on its own within a few records.
var scopeOptions = Options{UnitSize: 64 << 10, RecycleThreshold: 256 << 10, PLRReserve: 256 << 10, CordBufferSize: 64 << 10, Copies: 1}

// newScopeEngine builds the named engine on a scopeHost whose store holds
// the parity blocks of stripes 0..3.
func newScopeEngine(t *testing.T, name string, o Options) (scopeHost, Engine) {
	h := scopeHost{newFakeHost(t)}
	eng, err := New(name, h, o)
	if err != nil {
		t.Fatal(err)
	}
	return h, eng
}

func putParity(t *testing.T, h scopeHost, p *sim.Proc) {
	for s := uint32(0); s < 4; s++ {
		for i := h.code.K; i < h.code.K+h.code.M; i++ {
			if err := h.store.Put(p, wire.BlockID{Ino: 1, Stripe: s, Index: uint16(i)}, make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func handle(t *testing.T, eng Engine, p *sim.Proc, m wire.Msg) {
	resp, ok := eng.Handle(p, 2, m)
	if err := wire.AckErr(resp, nil); !ok || err != nil {
		t.Errorf("%s: handle %s: handled=%v err=%v", eng.Name(), wire.Name(m), ok, err)
	}
}

// scopeSpans are byte ranges around scopeRecord's [512, 1024) of stripe 1,
// with whether NeedsSettleRange must report them while it is pending.
var scopeSpans = []struct {
	stripe   uint32
	off, end int64
	want     bool
}{{1, 512, 1024, true}, {1, 1000, 1001, true}, {1, 0, 4096, true},
	{1, 0, 512, false}, {1, 1024, 4096, false}, {3, 512, 1024, false}}

// TestNeedsSettleScopedToFailedStripes: in every engine, state pending only
// on stripes without the failed node leaves NeedsSettle(failed) false while
// NeedsSettle(0) is true; one record on a failed-node stripe makes
// NeedsSettle(failed) true, and NeedsSettleRange true for the ranges
// overlapping it only, until Settle(failed) has merged it.
func TestNeedsSettleScopedToFailedStripes(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			h, eng := newScopeEngine(t, name, scopeOptions)
			runProc(t, h.fakeHost, func(p *sim.Proc) {
				putParity(t, h, p)
				if scopeRecord(name, 0) == nil {
					if eng.NeedsSettle(0) || eng.NeedsSettle(scopeFailed) || eng.NeedsSettleRange(wire.StripeID{Ino: 1}, 0, 4096) {
						t.Error("FO reports settle work")
					}
					return
				}
				handle(t, eng, p, scopeRecord(name, 0))
				handle(t, eng, p, scopeRecord(name, 2))
				if eng.NeedsSettle(scopeFailed) || !eng.NeedsSettle(0) {
					t.Errorf("state on other stripes only: NeedsSettle(failed)=%v NeedsSettle(0)=%v, want false, true",
						eng.NeedsSettle(scopeFailed), eng.NeedsSettle(0))
				}
				handle(t, eng, p, scopeRecord(name, 1))
				if !eng.NeedsSettle(scopeFailed) {
					t.Error("a record on a failed-node stripe leaves NeedsSettle(failed) false")
				}
				for _, sp := range scopeSpans {
					if got := eng.NeedsSettleRange(wire.StripeID{Ino: 1, Stripe: sp.stripe}, sp.off, sp.end); got != sp.want {
						t.Errorf("NeedsSettleRange(stripe %d, [%d, %d)) = %v, want %v", sp.stripe, sp.off, sp.end, got, sp.want)
					}
				}
				if err := eng.Settle(p, scopeFailed); err != nil {
					t.Error(err)
				}
				if eng.NeedsSettle(scopeFailed) || eng.NeedsSettleRange(wire.StripeID{Ino: 1, Stripe: 1}, 0, 4096) {
					t.Error("NeedsSettle(failed) or NeedsSettleRange still true after Settle(failed)")
				}
			})
		})
	}
}

// TestSettleConvergesUnderAppends: in every engine, Settle(failed) returns
// while another proc keeps appending to stripes without the failed node,
// so the recovery barrier can run with client updates flowing. The appends
// come back to back, and CoRD's buffer seals at every record, so some unit
// is always pending and a settle that polls until the buffer is empty would
// not return.
func TestSettleConvergesUnderAppends(t *testing.T) {
	const appendFor = 20 * time.Millisecond
	o := scopeOptions
	o.CordBufferSize = 512
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			h, eng := newScopeEngine(t, name, o)
			appending, settled := false, false
			runProc(t, h.fakeHost, func(p *sim.Proc) {
				putParity(t, h, p)
				if m := scopeRecord(name, 1); m != nil {
					handle(t, eng, p, m)
				}
				appending = true
				h.env.Go("appender", func(ap *sim.Proc) {
					for i := 0; ap.Now() < appendFor; i++ {
						if m := scopeRecord(name, uint32(2*(i%2))); m != nil {
							handle(t, eng, ap, m)
						} else {
							ap.Sleep(20 * time.Microsecond)
						}
					}
					appending = false
				})
				p.Sleep(time.Millisecond)
				if err := eng.Settle(p, scopeFailed); err != nil {
					t.Error(err)
				}
				if !appending {
					t.Errorf("Settle(failed) returned only after the appends to other stripes stopped, at %v", p.Now())
				}
				if eng.NeedsSettle(scopeFailed) {
					t.Error("NeedsSettle(failed) still true after Settle(failed)")
				}
				settled = true
			})
			if !settled && !t.Failed() {
				t.Fatal("Settle(failed) never returned")
			}
		})
	}
}
