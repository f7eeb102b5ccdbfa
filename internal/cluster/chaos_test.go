package cluster

// The chaos grid: every update engine driven through three phases —
// faulted foreground I/O, a degraded window, and a concurrent recovery —
// under each netsim fault class, with every read verified against an
// in-memory reference and a byte-exact whole-file read-back at the end.
//
//   straggler  one survivor's NIC latency explodes; hedged degraded reads
//              must fire after HedgeDelay and win from the alternate
//              survivor set.
//   partition  an asymmetric client→OSD cut (engine-internal links stay
//              up, so no stripe can tear); foreground ops retry through
//              ErrPartitioned.
//   flap       the future victim bounces down/up on a schedule; dropped
//              engine-internal propagation may tear its stripes, which the
//              post-heal ScrubRepair plus the later rebuild must repair.
//   corrupt    a deterministic corruptor flips bytes in checksum-bearing
//              payloads; every injection must be detected (never silently
//              applied or returned) and retried through.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

type chaosScenario string

const (
	chaosStraggler chaosScenario = "straggler"
	chaosPartition chaosScenario = "partition"
	chaosFlap      chaosScenario = "flap"
	chaosCorrupt   chaosScenario = "corrupt"
)

var chaosScenarios = []chaosScenario{chaosStraggler, chaosPartition, chaosFlap, chaosCorrupt}

// chaosRun drives one (engine, scenario) cell.
type chaosRun struct {
	t       *testing.T
	c       *Cluster
	cl      *Client
	admin   *Client
	rng     *rand.Rand
	ino     uint64
	content []byte
	victim  wire.NodeID
}

// ops runs n random verified operations (≈1 read per 3 updates) against the
// reference buffer.
func (r *chaosRun) ops(p *sim.Proc, phase string, n int) {
	size := int64(len(r.content))
	for i := 0; i < n; i++ {
		if r.rng.Intn(3) == 0 {
			off := int64(r.rng.Intn(int(size - 2048)))
			ln := int64(1 + r.rng.Intn(2048))
			got, err := r.cl.Read(p, r.ino, off, ln)
			if err != nil {
				r.t.Errorf("%s read %d: %v", phase, i, err)
				return
			}
			if !bytes.Equal(got, r.content[off:off+ln]) {
				r.t.Errorf("%s read %d: stale bytes (off=%d len=%d)", phase, i, off, ln)
				return
			}
			continue
		}
		off := int64(r.rng.Intn(int(size - 2048)))
		buf := make([]byte, 1+r.rng.Intn(2048))
		r.rng.Read(buf)
		if err := r.cl.Update(p, r.ino, off, buf); err != nil {
			r.t.Errorf("%s update %d: %v", phase, i, err)
			return
		}
		copy(r.content[off:], buf)
	}
}

func runChaosCell(t *testing.T, engine string, scen chaosScenario) {
	cfg := degradedConfig(engine)
	const hedgeDelay = time.Millisecond
	const stragglerLat = 5 * time.Millisecond
	switch scen {
	case chaosStraggler:
		cfg.HedgeDelay = hedgeDelay
	}
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	victim := wire.NodeID(3)
	done := false
	var rep *RecoveryReport
	recoverNow := false
	c.Env.Go("recovery", func(p *sim.Proc) {
		for !recoverNow {
			p.Sleep(200 * time.Microsecond)
		}
		var err error
		rep, err = c.Recover(p, victim, 2, RecoverInterleaved, admin)
		if err != nil {
			t.Errorf("recover (%s/%s): %v", engine, scen, err)
		}
	})
	c.Env.Go("workload", func(p *sim.Proc) {
		r := &chaosRun{t: t, c: c, cl: cl, admin: admin,
			rng: rand.New(rand.NewSource(0xc4a05)), victim: victim}
		fileSize := 4 * c.StripeWidth()
		r.content = make([]byte, fileSize)
		r.rng.Read(r.content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		r.ino = ino
		if err := cl.WriteFile(p, ino, r.content); err != nil {
			t.Error(err)
			return
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}

		// ---- Phase 1: foreground I/O under the armed fault ----
		partNode := wire.NodeID(5)
		switch scen {
		case chaosStraggler:
			// A mild straggler on a non-victim node: ops just get slower.
			if err := c.Fabric.SetNodeLatency(partNode, netsim.Fixed(200*time.Microsecond)); err != nil {
				t.Error(err)
				return
			}
		case chaosPartition:
			// Asymmetric: client's requests to node 5 die on the wire.
			// Engine-internal OSD↔OSD links stay up, so no stripe can tear.
			if err := c.Fabric.Partition(cl.ID(), partNode, true); err != nil {
				t.Error(err)
				return
			}
			c.Env.Go("heal", func(hp *sim.Proc) {
				hp.Sleep(4 * time.Millisecond)
				c.Fabric.Partition(cl.ID(), partNode, false)
			})
		case chaosFlap:
			// The future victim bounces: three 400µs outages. Client-visible
			// failures retry; dropped engine-internal propagation tears at
			// most the victim's stripes, repaired below.
			start := p.Now() + 500*time.Microsecond
			if err := c.Fabric.ScheduleFlap(victim, start, 400*time.Microsecond, 1200*time.Microsecond, 3); err != nil {
				t.Error(err)
				return
			}
		case chaosCorrupt:
			c.Fabric.SetCorruptor(FlipCorruptor(7))
		}
		r.ops(p, "phase1", 60)
		if t.Failed() {
			return
		}
		// Heal phase-1 faults (the corruptor stays armed through the
		// degraded window; flap windows are already past).
		switch scen {
		case chaosStraggler:
			c.Fabric.SetNodeLatency(partNode, nil)
		case chaosPartition:
			p.Sleep(5 * time.Millisecond) // outlast the heal timer
		case chaosFlap:
			p.Sleep(5 * time.Millisecond) // outlast the last flap window
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Errorf("phase1 drain: %v", err)
			return
		}
		if scen == chaosFlap {
			// Repairing scrub: re-encode any stripe the flap windows tore.
			if _, _, err := c.ScrubRepair(p); err != nil {
				t.Errorf("scrub-repair: %v", err)
				return
			}
		}
		if scen != chaosCorrupt {
			// With the corruptor armed Scrub's store peeks are fine (rot
			// never lands at rest), but run it only on quiesced cells.
			if _, err := c.Scrub(); err != nil {
				t.Errorf("phase1 scrub: %v", err)
				return
			}
		}

		// ---- Phase 2: degraded window under the fault ----
		if err := c.BeginDegraded(p, victim, admin); err != nil {
			t.Errorf("begin degraded: %v", err)
			return
		}
		var hedgeBlkOff int64 = -1
		if scen == chaosStraggler {
			// Straggle the host of some lost block's first surviving shard
			// (not the serving surrogate): its primary reconstruction leg
			// stalls past HedgeDelay and the alternate-set hedge must win.
			st := c.degraded[victim]
			for _, blk := range c.lostBlocks(victim) {
				if int(blk.Index) >= c.Cfg.K {
					continue
				}
				s := blk.StripeID()
				osds := c.Placement(s)
				var first wire.NodeID
				for i := 0; i < c.Cfg.K+c.Cfg.M; i++ {
					if uint16(i) == blk.Index || c.Fabric.Down(osds[i]) {
						continue
					}
					first = osds[i]
					break
				}
				if first == 0 || first == st.surr[c.PG(s)] {
					continue
				}
				if err := c.Fabric.SetNodeLatency(first, netsim.Fixed(stragglerLat)); err != nil {
					t.Error(err)
					return
				}
				partNode = first
				hedgeBlkOff = int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize
				break
			}
			if hedgeBlkOff < 0 {
				t.Error("no hedgeable lost block found")
				return
			}
			for i := 0; i < 3; i++ {
				got, err := cl.Read(p, ino, hedgeBlkOff, 4096)
				if err != nil {
					t.Errorf("hedged read %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, r.content[hedgeBlkOff:hedgeBlkOff+4096]) {
					t.Errorf("hedged read %d: wrong bytes", i)
					return
				}
			}
			if fired, wins := c.HedgeStats(); fired == 0 || wins == 0 {
				t.Errorf("straggler cell: hedges fired=%d wins=%d, want both > 0", fired, wins)
				return
			}
			// The straggler slows every random op that touches it; heal it
			// before the bulk of the degraded workload and the rebuild.
			c.Fabric.SetNodeLatency(partNode, nil)
		}
		r.ops(p, "degraded", 40)
		if t.Failed() {
			return
		}

		// ---- Phase 3: recovery with concurrent foreground I/O ----
		if scen == chaosCorrupt {
			// Recovery's fan-in has no client-style retry loop; the wire is
			// clean again by the time the rebuild runs.
			c.Fabric.SetCorruptor(nil)
		}
		recoverNow = true
		r.ops(p, "recovering", 30)
		if t.Failed() {
			return
		}
		for rep == nil && !t.Failed() {
			p.Sleep(time.Millisecond)
		}
		if t.Failed() {
			return
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Errorf("final drain: %v", err)
			return
		}
		n, err := c.Scrub()
		if err != nil {
			t.Errorf("final scrub: %v", err)
			return
		}
		if n != 4 {
			t.Errorf("scrubbed %d stripes, want 4", n)
			return
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, r.content) {
			t.Errorf("whole-file mismatch after %s chaos", scen)
			return
		}
		if scen == chaosCorrupt {
			injected := c.Fabric.CorruptionsInjected()
			if injected == 0 {
				t.Error("corrupt cell injected nothing")
				return
			}
			if det := c.CorruptionsDetected(); det != injected {
				t.Errorf("detections=%d != injections=%d: corruption escaped", det, injected)
				return
			}
		}
		done = true
	})
	c.Env.RunTest(t)
	if t.Failed() {
		return
	}
	if !done || rep == nil {
		t.Fatalf("deadlock: verified=%v recovered=%v", done, rep != nil)
	}
	if rep.Blocks == 0 {
		t.Fatal("victim hosted no blocks?")
	}
}

// TestChaosGrid is the headline grid: all six engines × four fault classes
// (TSUE only under -short), each cell byte-exact end to end.
func TestChaosGrid(t *testing.T) {
	engines := update.Names()
	if testing.Short() {
		engines = []string{"tsue"}
	}
	for _, engine := range engines {
		for _, scen := range chaosScenarios {
			engine, scen := engine, scen
			t.Run(fmt.Sprintf("%s/%s", engine, scen), func(t *testing.T) {
				runChaosCell(t, engine, scen)
			})
		}
	}
}
