package placement

import (
	"testing"

	"tsue/internal/wire"
)

func epochBase(t *testing.T, osds, pgs, width int) *Epochs {
	t.Helper()
	ids := make([]wire.NodeID, osds)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	m, err := New(Config{PGs: pgs, Width: width, OSDs: ids, Seed: 0xfeed})
	if err != nil {
		t.Fatal(err)
	}
	return NewEpochs(m)
}

func stripePop(files, stripes int) []wire.StripeID {
	var out []wire.StripeID
	for f := 0; f < files; f++ {
		for s := 0; s < stripes; s++ {
			out = append(out, wire.StripeID{Ino: uint64(f + 1), Stripe: uint32(s)})
		}
	}
	return out
}

// TestAddOSDMinimalRemap pins the headline property: adding one OSD changes
// at most one slot per PG, never touches PGs the newcomer does not win, and
// the actual block movement stays within 1.5x the minimal-remap bound.
func TestAddOSDMinimalRemap(t *testing.T) {
	e := epochBase(t, 10, 64, 6)
	stripes := stripePop(4, 32)
	old := e.Current()
	to, err := e.AddOSD(wire.NodeID(11))
	if err != nil {
		t.Fatal(err)
	}
	if to != 1 || e.Epoch() != 1 {
		t.Fatalf("epoch after add = %d (chain %d)", to, e.Epoch())
	}
	next := e.At(to)

	changedPGs := 0
	for pg := 0; pg < 64; pg++ {
		om, _ := old.Members(pg, nil)
		nm, _ := next.Members(pg, nil)
		diffSlots := 0
		for i := range om {
			if om[i] != nm[i] {
				diffSlots++
				if nm[i] != 11 {
					t.Fatalf("pg %d slot %d changed to %d, not the new OSD", pg, i, nm[i])
				}
			}
		}
		if diffSlots > 1 {
			t.Fatalf("pg %d changed %d slots", pg, diffSlots)
		}
		if diffSlots == 1 {
			changedPGs++
		}
	}
	if changedPGs == 0 {
		t.Fatal("no PG adopted the new OSD")
	}

	moves := Diff(old, next, stripes)
	for _, mv := range moves {
		if mv.To != 11 {
			t.Fatalf("move %+v targets %d, not the new OSD", mv, mv.To)
		}
	}
	bound := e.MinimalBound(to, stripes)
	if bound <= 0 {
		t.Fatalf("bound = %v", bound)
	}
	if float64(len(moves)) > 1.5*bound {
		t.Fatalf("moved %d blocks > 1.5x bound %.1f", len(moves), bound)
	}
}

// TestAddOSDConvergesToStraw: the derived member set equals the top-Width of
// the grown candidate ranking (the from-scratch straw selection), even
// though slot order differs — repeated adds cannot drift away from straw
// balance.
func TestAddOSDConvergesToStraw(t *testing.T) {
	e := epochBase(t, 8, 32, 5)
	if _, err := e.AddOSD(9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddOSD(10); err != nil {
		t.Fatal(err)
	}
	next := e.Current()
	for pg := 0; pg < 32; pg++ {
		want := make(map[wire.NodeID]bool)
		for _, id := range next.cand[pg][:5] {
			want[id] = true
		}
		got, _ := next.Members(pg, nil)
		for _, id := range got {
			if !want[id] {
				t.Fatalf("pg %d member %d not in straw top-Width %v", pg, id, next.cand[pg][:5])
			}
		}
	}
}

// TestDerivedMapLiveness: dead-slot replacement and Replacement still work
// on an epoch-derived map (explicit member assignment), with the same
// stability guarantees as the base map.
func TestDerivedMapLiveness(t *testing.T) {
	e := epochBase(t, 8, 24, 5)
	if _, err := e.AddOSD(9); err != nil {
		t.Fatal(err)
	}
	m := e.Current()
	deadID := wire.NodeID(2)
	dead := func(id wire.NodeID) bool { return id == deadID }
	for pg := 0; pg < 24; pg++ {
		base, err := m.Members(pg, nil)
		if err != nil {
			t.Fatal(err)
		}
		live, err := m.Members(pg, dead)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if base[i] == deadID {
				if live[i] == deadID {
					t.Fatalf("pg %d slot %d still dead", pg, i)
				}
				if m.MemberSlot(pg, base[i]) != i {
					t.Fatalf("pg %d MemberSlot mismatch", pg)
				}
			} else if live[i] != base[i] {
				t.Fatalf("pg %d surviving slot %d moved", pg, i)
			}
		}
	}
	s := wire.StripeID{Ino: 1, Stripe: 7}
	if _, err := m.Replacement(s, 0, dead, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEpochChainDeterminism: the same AddOSD sequence yields identical
// placement twice over.
func TestEpochChainDeterminism(t *testing.T) {
	build := func() *Epochs {
		e := epochBase(t, 8, 32, 5)
		if _, err := e.AddOSD(9); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AddOSD(10); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	if a.Epoch() != 2 || b.Epoch() != 2 {
		t.Fatalf("chain length %d/%d", a.Epoch(), b.Epoch())
	}
	for _, s := range stripePop(2, 16) {
		pa, _ := a.Current().Place(s, nil)
		pb, _ := b.Current().Place(s, nil)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("stripe %v placement diverged", s)
			}
		}
	}
}
