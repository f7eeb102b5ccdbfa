package placement

// Property tests for the CRUSH-like placement map: determinism across
// independently built maps, balance bounds across PG counts, minimal
// remapping on single-OSD death, role rotation coverage, and the
// degenerate-configuration error paths. These are the invariants the
// cluster layer (MDS addressing, recovery targets, degraded surrogates)
// leans on.

import (
	"fmt"
	"testing"

	"tsue/internal/wire"
)

func osds(n int) []wire.NodeID {
	out := make([]wire.NodeID, n)
	for i := range out {
		out[i] = wire.NodeID(i + 1)
	}
	return out
}

func mustMap(t *testing.T, pgs, width, n int) *Map {
	t.Helper()
	m, err := New(Config{PGs: pgs, Width: width, OSDs: osds(n), Seed: 0x7507})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func deadSet(ids ...wire.NodeID) func(wire.NodeID) bool {
	set := make(map[wire.NodeID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(id wire.NodeID) bool { return set[id] }
}

// TestDeterminism: two independently constructed maps with the same config
// must agree on every PG assignment and every stripe placement, with and
// without dead OSDs — the property that lets every node compute placement
// locally.
func TestDeterminism(t *testing.T) {
	a := mustMap(t, 64, 6, 12)
	b := mustMap(t, 64, 6, 12)
	views := []func(wire.NodeID) bool{nil, deadSet(3), deadSet(3, 7)}
	for ino := uint64(1); ino <= 20; ino++ {
		for stripe := uint32(0); stripe < 50; stripe++ {
			s := wire.StripeID{Ino: ino, Stripe: stripe}
			if a.PGOf(s) != b.PGOf(s) {
				t.Fatalf("PGOf(%v) differs: %d vs %d", s, a.PGOf(s), b.PGOf(s))
			}
			for _, dead := range views {
				pa, ea := a.Place(s, dead)
				pb, eb := b.Place(s, dead)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("Place(%v) error mismatch: %v vs %v", s, ea, eb)
				}
				for i := range pa {
					if pa[i] != pb[i] {
						t.Fatalf("Place(%v)[%d] differs: %v vs %v", s, i, pa, pb)
					}
				}
			}
		}
	}
}

// TestBalanceAcrossPGCounts: the per-OSD share of PG slots and of actual
// stripe blocks must stay within a max/mean bound for every PG count the
// placement experiment sweeps. The bound loosens as PGs shrink (fewer
// independent straws), which is exactly the concentration the experiment
// measures — but at operating PG counts (>= 4x OSDs) it must be tight.
func TestBalanceAcrossPGCounts(t *testing.T) {
	const nOSD, width = 16, 10
	for _, tc := range []struct {
		pgs   int
		bound float64 // max/mean slot load
	}{
		{64, 1.5},
		{128, 1.35},
		{512, 1.25},
	} {
		m := mustMap(t, tc.pgs, width, nOSD)
		slotLoad := make(map[wire.NodeID]int)
		for pg := 0; pg < tc.pgs; pg++ {
			mem, err := m.Members(pg, nil)
			if err != nil {
				t.Fatal(err)
			}
			unique := make(map[wire.NodeID]bool)
			for _, id := range mem {
				if unique[id] {
					t.Fatalf("pgs=%d pg=%d repeats member %d", tc.pgs, pg, id)
				}
				unique[id] = true
				slotLoad[id]++
			}
		}
		mean := float64(tc.pgs*width) / float64(nOSD)
		for id, n := range slotLoad {
			if r := float64(n) / mean; r > tc.bound {
				t.Errorf("pgs=%d OSD %d slot load %.2fx mean (bound %.2fx)", tc.pgs, id, r, tc.bound)
			}
		}
		// Block-level balance over a multi-file stripe population.
		blockLoad := make(map[wire.NodeID]int)
		blocks := 0
		for ino := uint64(1); ino <= 8; ino++ {
			for stripe := uint32(0); stripe < 64; stripe++ {
				pl, err := m.Place(wire.StripeID{Ino: ino, Stripe: stripe}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range pl {
					blockLoad[id]++
					blocks++
				}
			}
		}
		bmean := float64(blocks) / float64(nOSD)
		for id, n := range blockLoad {
			if r := float64(n) / bmean; r > tc.bound+0.15 {
				t.Errorf("pgs=%d OSD %d block load %.2fx mean", tc.pgs, id, r)
			}
		}
	}
}

// TestMinimalRemapOnSingleDeath: killing one OSD must (a) leave every PG
// that did not include it byte-identical, and (b) change exactly one slot —
// the dead one's — in every PG that did, replacing it with a live non-member.
func TestMinimalRemapOnSingleDeath(t *testing.T) {
	m := mustMap(t, 256, 10, 16)
	for _, victim := range osds(16) {
		dead := deadSet(victim)
		touched := 0
		for pg := 0; pg < 256; pg++ {
			before, err := m.Members(pg, nil)
			if err != nil {
				t.Fatal(err)
			}
			after, err := m.Members(pg, dead)
			if err != nil {
				t.Fatal(err)
			}
			slot := m.MemberSlot(pg, victim)
			if slot < 0 {
				for i := range before {
					if before[i] != after[i] {
						t.Fatalf("victim %d not in pg %d but slot %d moved %d->%d",
							victim, pg, i, before[i], after[i])
					}
				}
				continue
			}
			touched++
			for i := range before {
				if i == slot {
					if after[i] == victim {
						t.Fatalf("pg %d slot %d still assigns dead OSD %d", pg, slot, victim)
					}
					for _, b := range before {
						if after[i] == b {
							t.Fatalf("pg %d replacement %d was already a member", pg, after[i])
						}
					}
					continue
				}
				if before[i] != after[i] {
					t.Fatalf("pg %d slot %d moved %d->%d on unrelated death of %d",
						pg, i, before[i], after[i], victim)
				}
			}
		}
		if touched == 0 {
			t.Errorf("victim %d was a member of no PG (balance hole)", victim)
		}
	}
}

// TestRoleRotationSpreadsParity: within one PG, the first-parity role
// (block index = K) must rotate across the PG's members rather than pinning
// one OSD behind every stripe's delta buffering.
func TestRoleRotationSpreadsParity(t *testing.T) {
	const k, mParity = 6, 4
	m := mustMap(t, 32, k+mParity, 16)
	// Collect many stripes of one PG and count who serves index K.
	firstParity := make(map[wire.NodeID]int)
	stripesSeen := 0
	for ino := uint64(1); ino <= 16; ino++ {
		for stripe := uint32(0); stripe < 256; stripe++ {
			s := wire.StripeID{Ino: ino, Stripe: stripe}
			if m.PGOf(s) != 0 {
				continue
			}
			pl, err := m.Place(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			firstParity[pl[k]]++
			stripesSeen++
		}
	}
	if stripesSeen < 20 {
		t.Fatalf("only %d stripes landed in PG 0; hash likely broken", stripesSeen)
	}
	if len(firstParity) < (k+mParity)/2 {
		t.Errorf("first-parity role served by only %d of %d members over %d stripes",
			len(firstParity), k+mParity, stripesSeen)
	}
}

// TestReplacementAvoidsExclusions: the recovery-target helper must fall
// past excluded OSDs deterministically and never return a dead or excluded
// node.
func TestReplacementAvoidsExclusions(t *testing.T) {
	m := mustMap(t, 64, 4, 8)
	s := wire.StripeID{Ino: 3, Stripe: 5}
	pl, err := m.Place(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := pl[1]
	dead := deadSet(victim)
	r1, err := m.Replacement(s, 1, dead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == victim || dead(r1) {
		t.Fatalf("replacement %d is the dead victim", r1)
	}
	// Excluding the natural replacement (plus the stripe's current hosts,
	// as the cluster's recovery does) must yield a fresh candidate, never
	// another current member of the stripe.
	hosts := map[wire.NodeID]bool{r1: true}
	for i, mem := range pl {
		if i != 1 {
			hosts[mem] = true
		}
	}
	r2, err := m.Replacement(s, 1, dead, func(id wire.NodeID) bool { return hosts[id] })
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1 || r2 == victim {
		t.Fatalf("excluded replacement returned again: %d", r2)
	}
	for i, mem := range pl {
		if i != 1 && r2 == mem {
			t.Fatalf("replacement %d collides with stripe member %d", r2, mem)
		}
	}
}

// TestErrors: degenerate configurations must be rejected, and a PG with
// fewer than Width live OSDs must surface an error rather than repeat
// members.
func TestErrors(t *testing.T) {
	if _, err := New(Config{PGs: 0, Width: 2, OSDs: osds(4)}); err == nil {
		t.Error("PGs=0 accepted")
	}
	if _, err := New(Config{PGs: 4, Width: 5, OSDs: osds(4)}); err == nil {
		t.Error("width > OSDs accepted")
	}
	if _, err := New(Config{PGs: 4, Width: 2, OSDs: []wire.NodeID{1, 1}}); err == nil {
		t.Error("duplicate OSDs accepted")
	}
	m := mustMap(t, 4, 3, 4)
	if _, err := m.Members(0, deadSet(1, 2)); err == nil {
		t.Error("PG with too few live OSDs did not error")
	}
	if _, err := m.Members(99, nil); err == nil {
		t.Error("out-of-range PG accepted")
	}
}

// TestPlacementGolden pins a handful of placements so accidental hash or
// ordering changes (which would silently reshuffle every simulated cluster)
// show up as a diff, not as mysteriously shifted experiment numbers.
func TestPlacementGolden(t *testing.T) {
	m := mustMap(t, 8, 4, 6)
	var got []string
	for stripe := uint32(0); stripe < 4; stripe++ {
		s := wire.StripeID{Ino: 1, Stripe: stripe}
		pl, err := m.Place(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("pg=%d rot=%d place=%v", m.PGOf(s), m.Rotation(s), pl))
	}
	prev := fmt.Sprintf("%v", got)
	again := mustMap(t, 8, 4, 6)
	var got2 []string
	for stripe := uint32(0); stripe < 4; stripe++ {
		s := wire.StripeID{Ino: 1, Stripe: stripe}
		pl, _ := again.Place(s, nil)
		got2 = append(got2, fmt.Sprintf("pg=%d rot=%d place=%v", again.PGOf(s), again.Rotation(s), pl))
	}
	if now := fmt.Sprintf("%v", got2); now != prev {
		t.Fatalf("placement not stable across constructions:\n%s\nvs\n%s", prev, now)
	}
}
