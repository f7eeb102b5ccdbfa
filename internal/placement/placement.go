// Package placement implements the CRUSH-like placement layer of ECFS: a
// deterministic pseudo-random mapping from (file, stripe) to a placement
// group (PG) and from each PG to an ordered set of OSDs. Like CRUSH
// (Weil et al., the placement function behind Ceph), the mapping is a pure
// function of the cluster shape — any node can compute any stripe's homes
// without a central lookup table — while still balancing load and moving a
// minimal amount of data when an OSD dies:
//
//   - (ino, stripe) hashes to one of Config.PGs placement groups;
//   - each PG ranks every OSD by a per-(PG, OSD) hash score ("straw"
//     selection) and its members are the Width top-scored OSDs;
//   - within a PG, the member→role assignment rotates per stripe, so the
//     parity roles (index K..K+M-1, including the first-parity slot that
//     buffers cross-parity deltas) spread across the PG's members instead
//     of pinning the same OSDs behind every stripe's parity traffic;
//   - when an OSD dies, each of its PGs replaces it *in place* with the
//     next-best scored live OSD: PGs that did not include the dead OSD are
//     untouched, and surviving members keep their slots (minimal remap).
//
// The package is pure computation — no simulation, no I/O — so the cluster
// (MDS, clients, recovery) and the property tests share one authority for
// who-owns-which-stripe.
package placement

import (
	"fmt"
	"sort"

	"tsue/internal/wire"
)

// Config describes one placement map.
type Config struct {
	// PGs is the placement-group count. More PGs spread each OSD's stripes
	// over more distinct peer sets, widening recovery fan-out.
	PGs int
	// Width is the number of OSDs per PG — the stripe width K+M.
	Width int
	// OSDs lists the participating OSD node IDs.
	OSDs []wire.NodeID
	// Seed perturbs every hash, standing in for a map epoch.
	Seed uint64
}

// Map is an immutable placement map. All methods are safe for concurrent
// readers.
type Map struct {
	cfg Config
	// cand[pg] is every OSD ranked by straw score for that PG (descending);
	// the first Width entries are the PG's baseline members.
	cand [][]wire.NodeID
	// slot[pg] maps an OSD to its candidate rank in cand[pg].
	slot []map[wire.NodeID]int
	// members, when non-nil, pins each PG's slot→OSD assignment explicitly
	// instead of deriving it from candidate rank. Epoch-derived maps (see
	// epoch.go) use it to change as few slots as possible per transition: a
	// from-scratch re-rank after an OSD add would shift every member below
	// the newcomer's rank, moving far more than the minimal-remap bound.
	members [][]wire.NodeID
}

// New validates cfg and precomputes the per-PG candidate rankings.
func New(cfg Config) (*Map, error) {
	if cfg.PGs < 1 {
		return nil, fmt.Errorf("placement: need at least 1 PG, got %d", cfg.PGs)
	}
	if cfg.Width < 1 {
		return nil, fmt.Errorf("placement: need positive width, got %d", cfg.Width)
	}
	if cfg.Width > len(cfg.OSDs) {
		return nil, fmt.Errorf("placement: width %d exceeds %d OSDs", cfg.Width, len(cfg.OSDs))
	}
	seen := make(map[wire.NodeID]bool, len(cfg.OSDs))
	for _, id := range cfg.OSDs {
		if seen[id] {
			return nil, fmt.Errorf("placement: duplicate OSD %d", id)
		}
		seen[id] = true
	}
	m := &Map{
		cfg:  cfg,
		cand: make([][]wire.NodeID, cfg.PGs),
		slot: make([]map[wire.NodeID]int, cfg.PGs),
	}
	for pg := 0; pg < cfg.PGs; pg++ {
		order := append([]wire.NodeID(nil), cfg.OSDs...)
		sort.SliceStable(order, func(i, j int) bool {
			si, sj := m.score(pg, order[i]), m.score(pg, order[j])
			if si != sj {
				return si > sj
			}
			return order[i] < order[j] // deterministic tiebreak
		})
		m.cand[pg] = order
		ranks := make(map[wire.NodeID]int, len(order))
		for r, id := range order {
			ranks[id] = r
		}
		m.slot[pg] = ranks
	}
	return m, nil
}

// Config returns the map's configuration.
func (m *Map) Config() Config { return m.cfg }

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the straw value of one OSD for one PG.
func (m *Map) score(pg int, id wire.NodeID) uint64 {
	return mix64(m.cfg.Seed ^ mix64(uint64(pg)*0x9e3779b97f4a7c15^uint64(uint32(id))*0xd1b54a32d192ed03))
}

// PGOf maps a stripe to its placement group.
func (m *Map) PGOf(s wire.StripeID) int {
	return int(mix64(m.cfg.Seed^s.Ino*0x2545f4914f6cdd1d^uint64(s.Stripe)*0x9e3779b97f4a7c15) % uint64(m.cfg.PGs))
}

// Rotation returns the stripe's role rotation within its PG: block index i
// is served by PG member (i + Rotation) mod Width. Distinct hash domain from
// PGOf so role assignment is independent of group assignment.
func (m *Map) Rotation(s wire.StripeID) int {
	return int(mix64(m.cfg.Seed^0xabcd^s.Ino*0xff51afd7ed558ccd^uint64(s.Stripe)*0xc4ceb9fe1a85ec53) % uint64(m.cfg.Width))
}

// baseline returns the PG's slot→OSD assignment before liveness filtering:
// the explicit epoch-derived assignment when present, else the top-Width
// candidates in rank order. The returned slice must not be mutated.
func (m *Map) baseline(pg int) []wire.NodeID {
	if m.members != nil {
		return m.members[pg]
	}
	return m.cand[pg][:m.cfg.Width]
}

// Members returns the PG's Width member OSDs, slot-ordered. dead (nil = all
// alive) excludes OSDs: a dead baseline member is replaced *in its slot* by
// the next-best scored live non-member, so surviving members never change
// slots and PGs without the dead OSD are unaffected. It errors only when
// fewer than Width OSDs are alive.
func (m *Map) Members(pg int, dead func(wire.NodeID) bool) ([]wire.NodeID, error) {
	if pg < 0 || pg >= m.cfg.PGs {
		return nil, fmt.Errorf("placement: PG %d out of range [0,%d)", pg, m.cfg.PGs)
	}
	base := m.baseline(pg)
	out := make([]wire.NodeID, m.cfg.Width)
	if dead == nil {
		copy(out, base)
		return out, nil
	}
	// queue is every non-member candidate in rank order. For rank-derived
	// baselines that is exactly cand[Width:] (no allocation — the hot path
	// for every pre-expansion map); epoch-derived baselines rebuild it.
	queue := m.cand[pg][m.cfg.Width:]
	if m.members != nil {
		inBase := make(map[wire.NodeID]bool, len(base))
		for _, id := range base {
			inBase[id] = true
		}
		queue = make([]wire.NodeID, 0, len(m.cand[pg])-len(base))
		for _, id := range m.cand[pg] {
			if !inBase[id] {
				queue = append(queue, id)
			}
		}
	}
	qi := 0
	for i, id := range base {
		if !dead(id) {
			out[i] = id
			continue
		}
		for qi < len(queue) && dead(queue[qi]) {
			qi++
		}
		if qi >= len(queue) {
			return nil, fmt.Errorf("placement: PG %d has fewer than %d live OSDs", pg, m.cfg.Width)
		}
		out[i] = queue[qi]
		qi++
	}
	return out, nil
}

// Place returns the stripe's Width hosting OSDs under the given liveness
// view, block index i at element i (indices K..K+M-1 are the parity roles).
func (m *Map) Place(s wire.StripeID, dead func(wire.NodeID) bool) ([]wire.NodeID, error) {
	mem, err := m.Members(m.PGOf(s), dead)
	if err != nil {
		return nil, err
	}
	rot := m.Rotation(s)
	w := m.cfg.Width
	out := make([]wire.NodeID, w)
	for i := range out {
		out[i] = mem[(i+rot)%w]
	}
	return out, nil
}

// MemberSlot returns the slot the OSD occupies in the PG's baseline
// member set, or -1 when it is not a baseline member.
func (m *Map) MemberSlot(pg int, id wire.NodeID) int {
	if m.members != nil {
		for i, mem := range m.members[pg] {
			if mem == id {
				return i
			}
		}
		return -1
	}
	r, ok := m.slot[pg][id]
	if !ok || r >= m.cfg.Width {
		return -1
	}
	return r
}

// Replacement returns the OSD that should take over block index idx of
// stripe s under the given liveness view: the stable in-slot replacement
// from Members, falling back down the PG's candidate ranking past any OSD
// the caller excludes (e.g. nodes already hosting another block of the same
// stripe after earlier recoveries, so a stripe never doubles up).
func (m *Map) Replacement(s wire.StripeID, idx int, dead, exclude func(wire.NodeID) bool) (wire.NodeID, error) {
	pg := m.PGOf(s)
	mem, err := m.Members(pg, dead)
	if err != nil {
		return 0, err
	}
	slot := (idx + m.Rotation(s)) % m.cfg.Width
	id := mem[slot]
	if exclude == nil || !exclude(id) {
		return id, nil
	}
	// Fall down the PG's ranking. Only the caller's exclusions (the actual
	// current hosts of the stripe's other blocks) disqualify a candidate:
	// a baseline member of another slot is eligible when remaps have moved
	// that slot's block elsewhere — on an exactly-wide cluster it can be
	// the only node left.
	for _, c := range m.cand[pg] {
		if c == id || (dead != nil && dead(c)) || exclude(c) {
			continue
		}
		return c, nil
	}
	return 0, fmt.Errorf("placement: no eligible replacement for %v block %d", s, idx)
}
