package update

import (
	"slices"
	"strings"
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

// putStripes stores the data and parity blocks of stripes 0..3.
func putStripes(t *testing.T, h scopeHost, p *sim.Proc) {
	for s := uint32(0); s < 4; s++ {
		for i := 0; i < h.code.K+h.code.M; i++ {
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

// pendingScopes are the scopes the table asks about: All, both kinds of
// Failed, then byte ranges around scopeRecord's [512, 1024) of stripe 1.
var pendingScopes = [9]Scope{
	All, Failed(0), Failed(scopeFailed),
	Bytes(wire.StripeID{Ino: 1, Stripe: 1}, 512, 1024),
	Bytes(wire.StripeID{Ino: 1, Stripe: 1}, 1000, 1001),
	Bytes(wire.StripeID{Ino: 1, Stripe: 1}, 0, 4096),
	Bytes(wire.StripeID{Ino: 1, Stripe: 1}, 0, 512),
	Bytes(wire.StripeID{Ino: 1, Stripe: 1}, 1024, 4096),
	Bytes(wire.StripeID{Ino: 1, Stripe: 3}, 512, 1024),
}

// pendingTable: each row builds a state in a fresh engine of each of its
// engines and gives what Pending answers under pendingScopes, in order.
// Only TSUE's active DataLog unit is pure overlay, so the All and
// Failed(0) columns differ only in the rows that leave one. CoRD merges a
// failed node's scope by whole units of its one buffer, which here also
// carry the other stripes' deltas.
var pendingTable = []struct {
	engines string
	state   string
	records []uint32 // stripes given one scopeRecord each, in order
	update  bool     // a client update of stripe 1's block 1 at [512, 1024)
	merge   bool     // then Merge(Failed(scopeFailed))
	want    [9]bool
}{
	{engines: "fo pl plr parix cord tsue", state: "nothing pending"},
	{engines: "pl plr parix cord tsue", state: "other stripes", records: []uint32{0, 2},
		want: [9]bool{true, true}},
	{engines: "pl plr parix cord tsue", state: "a failed-node stripe", records: []uint32{0, 2, 1},
		want: [9]bool{true, true, true, true, true, true}},
	{engines: "pl plr parix tsue", state: "failed node's scope merged", records: []uint32{0, 2, 1}, merge: true,
		want: [9]bool{true, true}},
	{engines: "cord", state: "failed node's scope merged", records: []uint32{0, 2, 1}, merge: true},
	{engines: "tsue", state: "overlay", update: true,
		want: [9]bool{true, false, true, true, true, true}},
	{engines: "tsue", state: "overlay merged", update: true, merge: true},
}

// TestNeedsSettleScopedToFailedStripes runs pendingTable: state pending
// only on stripes without the failed node counts under All and Failed(0)
// but not under Failed(failed); a record on a failed-node stripe counts
// under Failed(failed) and under the byte ranges overlapping it only, until
// Merge(Failed(failed)) has merged it; pure overlay counts under All and
// its failed node's scope, never under Failed(0).
func TestNeedsSettleScopedToFailedStripes(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, row := range pendingTable {
				if !slices.Contains(strings.Fields(row.engines), name) {
					continue
				}
				h, eng := newScopeEngine(t, name, scopeOptions)
				runProc(t, h.fakeHost, func(p *sim.Proc) {
					putStripes(t, h, p)
					for _, s := range row.records {
						handle(t, eng, p, scopeRecord(name, s))
					}
					if row.update {
						if err := applyUpdate(eng, p, wire.BlockID{Ino: 1, Stripe: 1, Index: 1}, 512, make([]byte, 512)); err != nil {
							t.Error(err)
						}
					}
					if row.merge {
						if err := eng.Merge(p, Failed(scopeFailed)); err != nil {
							t.Error(err)
						}
					}
					for i, sc := range pendingScopes {
						if got := eng.Pending(sc); got != row.want[i] {
							t.Errorf("%s: Pending(%+v) = %v, want %v", row.state, sc, got, row.want[i])
						}
					}
				})
			}
		})
	}
}

// TestPendingCountsInFlightMerges: a PL threshold recycle and a PARIX fold
// take a block's records out of the log before they apply them. While one
// is in flight the log holds nothing, yet Pending stays true under All, the
// failed node's scope and the record's byte range until the merge lands.
func TestPendingCountsInFlightMerges(t *testing.T) {
	o := scopeOptions
	o.RecycleThreshold = 512 // one scopeRecord crosses it
	inFlight := map[string]func(Engine) bool{
		"pl":    func(e Engine) bool { pl := e.(*pl); return len(pl.records) == 0 && len(pl.applying) > 0 },
		"parix": func(e Engine) bool { px := e.(*parix); return len(px.latest) == 0 && len(px.folding) > 0 },
	}
	scopes := []Scope{All, Failed(scopeFailed), Bytes(wire.StripeID{Ino: 1, Stripe: 1}, 512, 1024)}
	for _, name := range []string{"pl", "parix"} {
		t.Run(name, func(t *testing.T) {
			h, eng := newScopeEngine(t, name, o)
			runProc(t, h.fakeHost, func(p *sim.Proc) {
				putStripes(t, h, p)
				landed, held := false, 0
				h.env.Go("appender", func(ap *sim.Proc) {
					handle(t, eng, ap, scopeRecord(name, 1))
					landed = true
				})
				for !landed {
					p.Sleep(time.Microsecond)
					if !inFlight[name](eng) {
						continue
					}
					held++
					for _, sc := range scopes {
						if !eng.Pending(sc) {
							t.Errorf("at %v, with a merge in flight: Pending(%+v) = false", p.Now(), sc)
						}
					}
				}
				if held == 0 {
					t.Error("never saw the merge in flight")
				}
				for _, sc := range scopes {
					if eng.Pending(sc) {
						t.Errorf("after the merge landed: Pending(%+v) = true", sc)
					}
				}
			})
		})
	}
}

// TestSettleConvergesUnderAppends: in every engine, Merge(Failed(failed)) returns
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
				putStripes(t, h, p)
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
				if err := eng.Merge(p, Failed(scopeFailed)); err != nil {
					t.Error(err)
				}
				if !appending {
					t.Errorf("Merge(Failed(failed)) returned only after the appends to other stripes stopped, at %v", p.Now())
				}
				if eng.Pending(Failed(scopeFailed)) {
					t.Error("Pending(Failed(failed)) still true after Merge(Failed(failed))")
				}
				settled = true
			})
			if !settled && !t.Failed() {
				t.Fatal("Merge(Failed(failed)) never returned")
			}
		})
	}
}
