package cluster

import (
	"errors"
	"fmt"
	"sort"

	"tsue/internal/placement"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// MDS is the metadata server: file namespace, the placement authority (it
// owns the epoch chain of CRUSH-like placement maps that clients and OSDs
// resolve stripe homes through), and recovery orchestration (§4). During an
// online rebalance the MDS also owns the transition state: each
// staged-epoch PG's stage, which says whether it has cut over to its new
// homes and whether it is inside a cutover fence right now.
type MDS struct {
	c      *Cluster
	epochs *placement.Epochs
	// committed is the epoch every PG resolves under outside a transition;
	// during one, PGs flip from committed to trans.next as they cut over.
	committed uint64
	// trans is the in-flight transition (nil when none).
	trans   *transition
	nextIno uint64
	byName  map[string]uint64
	files   map[uint64]*fileMeta

	// committedCond is broadcast when a transition commits (Kill waits on
	// it for the transition a death landed in).
	committedCond *sim.Cond
}

// PGStage enumerates one migrating PG's position in a placement
// transition's state machine: staged → copying → fenced → replaying →
// committed on the happy path, with aborted as the rollback terminal when
// an OSD death mid-transition resolves the PG back to the prior epoch.
type PGStage uint8

const (
	// StageStaged: the PG's moves are planned; no byte has been copied.
	StageStaged PGStage = iota
	// StageCopying: throttled bulk copy in flight, foreground I/O flowing.
	StageCopying
	// StageFenced: inside the cutover fence (settle, catch-up, extract) —
	// the update gate is closed and reads of the PG bounce.
	StageFenced
	// StageReplaying: the MDS has flipped the PG to the staged epoch and
	// extracted overlay records are replaying into the new homes; reads of
	// the PG still bounce.
	StageReplaying
	// StageCommitted: the PG is fully cut over (terminal).
	StageCommitted
	// StageAborted: the PG was rolled back to the prior epoch after an OSD
	// death (terminal; the block moves become physical remaps at commit).
	StageAborted
)

// String returns the stage's report name.
func (s PGStage) String() string {
	switch s {
	case StageStaged:
		return "staged"
	case StageCopying:
		return "copying"
	case StageFenced:
		return "fenced"
	case StageReplaying:
		return "replaying"
	case StageCommitted:
		return "committed"
	case StageAborted:
		return "aborted"
	}
	return fmt.Sprintf("PGStage(%d)", uint8(s))
}

// transition tracks one staged epoch mid-migration. Indexed by staged-epoch
// PG id (the cutover unit).
type transition struct {
	next uint64
	// stage is each migrating PG's state-machine position (PGs without
	// moves never appear: they flip for free at commit). A PG has cut over
	// once it is replaying or committed (cutOver), and is inside its cutover
	// fence while fenced or replaying (Cluster.migrationFenced); an aborted
	// PG keeps resolving under the committed epoch and its moves become
	// physical remaps at commit.
	stage map[int]PGStage
}

// cutOver reports whether the PG has flipped to the staged epoch.
func (t *transition) cutOver(pg int) bool {
	s := t.stage[pg]
	return s == StageReplaying || s == StageCommitted
}

func newMDS(c *Cluster, place *placement.Map) *MDS {
	return &MDS{
		c:             c,
		epochs:        placement.NewEpochs(place),
		committedCond: sim.NewCond(c.Env),
		nextIno:       1,
		byName:        make(map[string]uint64),
		files:         make(map[uint64]*fileMeta),
	}
}

// PlacementMap exposes the committed placement map (read-only authority for
// recovery targeting, degraded surrogate selection, and tests). Recovery
// and transitions are mutually exclusive, so within a degraded window the
// committed map is THE map.
func (m *MDS) PlacementMap() *placement.Map { return m.epochs.At(m.committed) }

// CommittedEpoch returns the committed epoch number.
func (m *MDS) CommittedEpoch() uint64 { return m.committed }

// view returns the newest map version a client can learn from the MDS: the
// staged epoch during a transition, else the committed one.
func (m *MDS) view() uint64 {
	if m.trans != nil {
		return m.trans.next
	}
	return m.committed
}

// authEpochOf returns the authoritative epoch of the stripe's PG: the
// staged epoch once the PG has cut over, the committed epoch before.
func (m *MDS) authEpochOf(s wire.StripeID) uint64 {
	if t := m.trans; t != nil && t.cutOver(m.epochs.At(t.next).PGOf(s)) {
		return t.next
	}
	return m.committed
}

// sortedInos returns every file inode in ascending order — the
// deterministic iteration order for whole-namespace sweeps (scrubs,
// transition diffs).
func (m *MDS) sortedInos() []uint64 {
	inos := make([]uint64, 0, len(m.files))
	for ino := range m.files {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	return inos
}

// allStripes enumerates every stripe of every file in deterministic order —
// the population a transition's diff and minimal-remap bound cover.
func (m *MDS) allStripes() []wire.StripeID {
	var out []wire.StripeID
	for _, ino := range m.sortedInos() {
		for s := uint32(0); s < m.files[ino].stripes; s++ {
			out = append(out, wire.StripeID{Ino: ino, Stripe: s})
		}
	}
	return out
}

func (m *MDS) handle(p *sim.Proc, from wire.NodeID, msg wire.Msg) wire.Msg {
	switch v := msg.(type) {
	case *wire.CreateFile:
		if ino, ok := m.byName[v.Name]; ok {
			return &wire.CreateResp{Ino: ino}
		}
		ino := m.nextIno
		m.nextIno++
		m.byName[v.Name] = ino
		m.files[ino] = &fileMeta{ino: ino, name: v.Name, stripes: v.Stripes}
		return &wire.CreateResp{Ino: ino}
	case *wire.Lookup:
		fm, ok := m.files[v.Ino]
		if !ok || v.Stripe >= fm.stripes {
			return &wire.LookupResp{Err: errors.New("no such stripe")}
		}
		sid := wire.StripeID{Ino: v.Ino, Stripe: v.Stripe}
		return &wire.LookupResp{
			OSDs:  m.c.Placement(sid),
			PG:    uint32(m.PlacementMap().PGOf(sid)),
			Epoch: m.view(),
		}
	case *wire.EpochUpdate:
		return m.handleEpochUpdate(v)
	case *wire.PGCutover:
		t := m.trans
		if t == nil || v.Epoch != t.next {
			return &wire.Ack{Err: fmt.Errorf("mds: cutover for epoch %d outside transition", v.Epoch)}
		}
		if t.stage[int(v.PG)] == StageAborted {
			return &wire.Ack{Err: fmt.Errorf("mds: pg %d already aborted", v.PG)}
		}
		t.stage[int(v.PG)] = StageReplaying
		return wire.OK
	case *wire.PGAbort:
		t := m.trans
		if t == nil || v.Epoch != t.next {
			return &wire.Ack{Err: fmt.Errorf("mds: abort for epoch %d outside transition", v.Epoch)}
		}
		if t.cutOver(int(v.PG)) {
			// Past the flip the staged map is authoritative for the PG;
			// rolling back would strand replayed state. The mover's policy
			// never aborts here (it finishes instead).
			return &wire.Ack{Err: fmt.Errorf("mds: pg %d already cut over, cannot abort", v.PG)}
		}
		t.stage[int(v.PG)] = StageAborted
		return wire.OK
	case *wire.AdmitOp:
		pol := m.c.Cfg.Admission
		if pol == nil || pol.Admit(m.c.admittedInFlight) {
			m.c.admitted++
			m.c.admittedInFlight++
			return wire.OK
		}
		m.c.rejected++
		return &wire.Ack{Err: ErrOverload}
	}
	return &wire.Ack{Err: fmt.Errorf("mds: unhandled message %s", wire.Name(msg))}
}

// handleEpochUpdate stages or commits a placement epoch. One transition at
// a time: staging while another is in flight is refused, as is committing
// with none.
func (m *MDS) handleEpochUpdate(v *wire.EpochUpdate) wire.Msg {
	switch v.Kind {
	case wire.EpochCommit:
		if m.trans == nil {
			return &wire.EpochResp{Err: errors.New("mds: no transition to commit")}
		}
		m.committed = m.trans.next
		m.trans = nil
		m.committedCond.Broadcast()
		return &wire.EpochResp{Epoch: m.committed}
	case wire.EpochStageAddOSD:
		if m.trans != nil {
			return &wire.EpochResp{Err: fmt.Errorf("mds: transition to epoch %d already in flight", m.trans.next)}
		}
		next, err := m.epochs.AddOSD(v.OSD)
		if err != nil {
			return &wire.EpochResp{Err: err}
		}
		m.trans = &transition{next: next, stage: make(map[int]PGStage)}
		return &wire.EpochResp{Epoch: next}
	}
	return &wire.EpochResp{Err: fmt.Errorf("mds: unknown epoch op %d", v.Kind)}
}

// setPGStage advances a migrating PG's state-machine position. The mover
// drives the happy-path edges directly (control plane); the abort edge and
// the replaying edge arrive over the wire (PGAbort / PGCutover) so the MDS
// stays the single authority PGStageOf and the resolution policy read.
func (m *MDS) setPGStage(pg int, s PGStage) {
	if t := m.trans; t != nil {
		t.stage[pg] = s
	}
}

// PGStageOf returns a migrating PG's transition stage; ok is false when no
// transition is in flight or the PG has no moves (tests, harness).
func (m *MDS) PGStageOf(pg int) (PGStage, bool) {
	t := m.trans
	if t == nil {
		return 0, false
	}
	s, ok := t.stage[pg]
	return s, ok
}
