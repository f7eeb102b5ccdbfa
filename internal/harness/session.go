package harness

import (
	"fmt"
	"math/rand"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// session is one harness run: a simulated cluster built from a RunConfig,
// its admin client, and — inside run — the preloaded file set and the
// update payload pool. Every Run* function is runSession (or its three
// parts) around a body that is the experiment followed by finish. Client
// creation and proc spawn order decide node ids and event tie-breaks, so
// steps that create either document the order they keep.
type session struct {
	cfg   RunConfig
	c     *cluster.Cluster
	admin *cluster.Client

	inos    []uint64 // preloaded files ("vol0"..)
	perFile int64    // bytes per file: each client's trace address space
	payload []byte   // deterministic pseudo-random source of update bytes
	ld      *load    // the foreground load, once startLoad has run
}

// newSession validates cfg, builds the cluster and creates the admin
// client (always the cluster's first client). The caller defers close.
func newSession(cfg RunConfig) (*session, error) {
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &session{cfg: cfg, c: c, admin: c.NewClient()}, nil
}

// runSession is newSession, run and close in one, for runs that need
// nothing before the harness proc is spawned or after the kernel quiesces.
func runSession(cfg RunConfig, body func(s *session, p *sim.Proc) error) error {
	s, err := newSession(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	return s.run(func(p *sim.Proc) error { return body(s, p) })
}

// close unwinds every proc still parked in the cluster's kernel.
func (s *session) close() { s.c.Env.Close() }

// runBound is the budget of one harness run. Measured at -scale full, the
// HDD runs of fig8a and fig8b reach 153 s of sim time (past SmallBound's
// minute) and the degraded experiment's pl/interleaved run 1.8 million
// events, so this leaves over 20 times either and stops only a run that
// livelocks or never quiesces, after a few minutes of host time.
var runBound = sim.Bound{Events: 500_000_000, Deadline: time.Hour}

// run spawns the harness proc — open, then body — runs the kernel until no
// event is left, and returns the proc's error, or the seed and the
// kernel's report if the run exhausts runBound first. A foreground load
// still running when body returns (a fault step failed) is told to stop,
// so the kernel quiesces at once instead of after the load's iteration cap.
func (s *session) run(body func(p *sim.Proc) error) error {
	var err error
	s.c.Env.Go("harness", func(p *sim.Proc) {
		if err = s.open(p); err == nil {
			err = body(p)
		}
		if s.ld != nil {
			s.ld.stop = true
		}
	})
	if _, rerr := s.c.Env.RunBounded(runBound); rerr != nil {
		return fmt.Errorf("seed %d: %w", s.cfg.Seed, rerr)
	}
	return err
}

// open creates the run's file set ("vol0"..) and writes deterministic
// content through the normal encoded write path — the working set splits
// evenly across cfg.Files, rounded up to whole stripes — then zeroes the
// device and network counters so they cover the measured phase only, and
// fills the payload pool.
func (s *session) open(p *sim.Proc) error {
	sw := s.c.StripeWidth()
	s.perFile = max(s.cfg.FileBytes/int64(s.cfg.Files), sw)
	s.perFile = (s.perFile + sw - 1) / sw * sw
	s.inos = make([]uint64, s.cfg.Files)
	content := make([]byte, s.perFile)
	for f := range s.inos {
		rand.New(rand.NewSource(s.cfg.Seed + int64(f)*104729)).Read(content)
		ino, err := s.admin.Create(p, fmt.Sprintf("vol%d", f), s.perFile)
		if err != nil {
			return err
		}
		if err := s.admin.WriteFile(p, ino, content); err != nil {
			return err
		}
		s.inos[f] = ino
	}
	s.c.ResetStats()
	s.payload = make([]byte, 1<<20)
	rand.New(rand.NewSource(s.cfg.Seed + 999)).Read(s.payload)
	return nil
}

// drain merges every outstanding log into place, so each scheme is charged
// its full merge debt before counters are read or stripes are checked.
func (s *session) drain(p *sim.Proc) error { return s.c.DrainAll(p, s.admin) }

// scrub verifies every stripe's parity against its data and returns the
// number of stripes checked — the gate every run ends with.
func (s *session) scrub() (int, error) {
	n, err := s.c.Scrub()
	if err != nil {
		return n, fmt.Errorf("post-run scrub failed: %w", err)
	}
	return n, nil
}

// finish is the end of a run: drain, then scrub.
func (s *session) finish(p *sim.Proc) (int, error) {
	if err := s.drain(p); err != nil {
		return 0, err
	}
	return s.scrub()
}

// generator returns a trace generator scoped to one file's address space.
func (s *session) generator(seed int64) *trace.Generator {
	prof := s.cfg.Trace
	prof.WorkingSet = s.perFile
	return trace.MustGenerator(prof, seed)
}

// issue performs one trace op on ino through cl. The offset is clamped so
// the op stays inside the file; a write carries a slice of the payload
// pool chosen by its offset.
func (s *session) issue(p *sim.Proc, cl *cluster.Client, ino uint64, op trace.Op) error {
	off := op.Off
	if off+int64(op.Size) > s.perFile {
		off = max(s.perFile-int64(op.Size), 0)
	}
	if op.Kind != trace.Write {
		_, err := cl.Read(p, ino, off, int64(op.Size))
		return err
	}
	pstart := int(off) % (len(s.payload) - int(op.Size))
	return cl.Update(p, ino, off, s.payload[pstart:pstart+int(op.Size)])
}

// mostLoaded returns the OSD holding the most blocks, skipping exclude
// (0 = none): failing it makes the rebuild volume representative, since a
// small working set can leave hash-unlucky OSDs empty.
func mostLoaded(c *cluster.Cluster, exclude wire.NodeID) wire.NodeID {
	id, most := wire.NodeID(1), -1
	for _, osd := range c.OSDs {
		if n := osd.Store().Len(); n > most && osd.NodeID() != exclude {
			most, id = n, osd.NodeID()
		}
	}
	return id
}
