package placement

// Epoch-versioned placement. The static Map of placement.go assumes fixed
// membership; cluster expansion needs a *sequence* of maps plus a precise
// account of which blocks each transition moves. Epochs is that sequence:
// an append-only chain of maps where each successor is derived from its
// parent by AddOSD, which changes as few PG slots as possible: per PG, the
// new OSD takes over exactly one slot — the weakest-scored current
// member's — and only when it outranks that member; every other slot keeps
// its OSD. The resulting member set is the straw top-Width of the grown
// candidate list, so repeated adds converge to the from-scratch map, but
// only ~Width/(N+1) of the PGs change at all and each changed PG moves one
// slot's blocks.
//
// Diff enumerates the (PG, block) moves between two maps for a given
// stripe population, and MinimalBound reports the information-theoretic
// floor any placement scheme must move for the transition — the yardstick
// the rebalance experiment measures actual movement against.

import (
	"fmt"

	"tsue/internal/wire"
)

// Move is one block relocation a transition requires.
type Move struct {
	Blk wire.BlockID
	// PG is the block's placement group under the new map (the cutover
	// unit of the migration engine).
	PG       int
	From, To wire.NodeID
}

// Epochs is the append-only chain of placement maps. Epoch 0 is the
// initial map; epoch i>0 was produced from epoch i-1 by one AddOSD. Like
// Map it is pure computation: staging, cutover and commit semantics live
// with the map's owner (the MDS).
type Epochs struct {
	maps []*Map
}

// NewEpochs starts a chain at epoch 0 with the given initial map.
func NewEpochs(initial *Map) *Epochs {
	return &Epochs{maps: []*Map{initial}}
}

// Epoch returns the newest epoch number.
func (e *Epochs) Epoch() uint64 { return uint64(len(e.maps) - 1) }

// Current returns the newest map.
func (e *Epochs) Current() *Map { return e.maps[len(e.maps)-1] }

// At returns the map of the given epoch.
func (e *Epochs) At(epoch uint64) *Map {
	if epoch >= uint64(len(e.maps)) {
		panic(fmt.Sprintf("placement: epoch %d out of range [0,%d]", epoch, len(e.maps)-1))
	}
	return e.maps[epoch]
}

// AddOSD derives a new epoch with id joined, returning the epoch number.
func (e *Epochs) AddOSD(id wire.NodeID) (uint64, error) {
	next, err := deriveAddOSD(e.Current(), id)
	if err != nil {
		return 0, err
	}
	e.maps = append(e.maps, next)
	return e.Epoch(), nil
}

// Diff computes the block moves the old→new transition requires for the
// given stripes: every (stripe, index) whose host differs between the two
// maps, tagged with its PG under the new map. Both maps are evaluated with
// no liveness filtering; the caller overlays any physical remaps it holds.
func Diff(old, new *Map, stripes []wire.StripeID) []Move {
	var out []Move
	for _, s := range stripes {
		po, err := old.Place(s, nil)
		if err != nil {
			panic("placement: diff old place: " + err.Error())
		}
		pn, err := new.Place(s, nil)
		if err != nil {
			panic("placement: diff new place: " + err.Error())
		}
		for i := range pn {
			if po[i] == pn[i] {
				continue
			}
			out = append(out, Move{
				Blk:  wire.BlockID{Ino: s.Ino, Stripe: s.Stripe, Index: uint16(i)},
				PG:   new.PGOf(s),
				From: po[i],
				To:   pn[i],
			})
		}
	}
	return out
}

// MinimalBound returns the minimal-remap lower bound on blocks that ANY
// placement scheme must move for the AddOSD that produced epoch `to`,
// given the stripe population: the added OSD must receive its balanced
// share of the grown cluster's blocks.
func (e *Epochs) MinimalBound(to uint64, stripes []wire.StripeID) float64 {
	cfg := e.At(to).cfg
	return float64(len(stripes)*cfg.Width) / float64(len(cfg.OSDs))
}

// ranksBelow reports whether a ranks strictly below b in the PG's straw
// ordering (New's candidate sort: descending score, smaller ID on ties).
func (m *Map) ranksBelow(pg int, a, b wire.NodeID) bool {
	sa, sb := m.score(pg, a), m.score(pg, b)
	if sa != sb {
		return sa < sb
	}
	return a > b
}

// deriveAddOSD builds the successor map with id joined. Straw scores are a
// pure function of (Seed, PG, OSD), so every incumbent keeps its score; per
// PG the newcomer displaces the weakest current member's slot iff it
// outranks that member, and no other slot changes.
func deriveAddOSD(parent *Map, id wire.NodeID) (*Map, error) {
	cfg := parent.cfg
	cfg.OSDs = append(append([]wire.NodeID(nil), parent.cfg.OSDs...), id)
	next, err := New(cfg)
	if err != nil {
		return nil, err
	}
	members := make([][]wire.NodeID, cfg.PGs)
	for pg := 0; pg < cfg.PGs; pg++ {
		cur := append([]wire.NodeID(nil), parent.baseline(pg)...)
		weak := 0
		for i := 1; i < len(cur); i++ {
			if next.ranksBelow(pg, cur[i], cur[weak]) {
				weak = i
			}
		}
		if next.ranksBelow(pg, cur[weak], id) {
			cur[weak] = id
		}
		members[pg] = cur
	}
	next.members = members
	return next, nil
}
