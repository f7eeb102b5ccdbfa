package cluster

// Randomized kill-update-recover-verify: a single client streams random
// updates and reads while an OSD is killed mid-stream and recovered
// CONCURRENTLY. Reads are verified against the reference at every step —
// including reads of lost blocks served by on-the-fly reconstruction plus
// journal overlay — and after the workload ends every stripe is drained,
// scrubbed (parity == re-encode) and read back byte-for-byte. Unit sizes
// are tiny relative to the update volume so the kill lands with recyclers
// mid-flight, which is exactly the state the settle barrier exists for.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// degradedConfig mirrors the consistency-test shape: small blocks and units
// so sealing/recycling is constantly active.
func degradedConfig(engine string) Config {
	cfg := DefaultConfig()
	cfg.OSDs = 8
	cfg.K, cfg.M = 4, 2
	cfg.BlockSize = 16 << 10
	cfg.Engine = engine
	cfg.EngineOpts = update.Options{
		UnitSize:         24 << 10,
		MaxUnits:         4,
		Pools:            2,
		Copies:           2,
		RecycleBatch:     2,
		RecycleThreshold: 48 << 10,
		PLRReserve:       8 << 10,
		CordBufferSize:   24 << 10,
	}
	return cfg
}

// killRecoverRun parameterizes one kill-update-recover-verify run.
type killRecoverRun struct {
	engine     string
	mode       RecoverMode
	seed       int64
	ops        int
	killAt     int
	files      int         // number of files (1 = the classic single-volume run)
	stripesPer int         // stripes per file
	victim     wire.NodeID // 0 = fail the most-loaded OSD
	mod        func(*Config)
	arm        func(*Cluster) // runs on the fresh cluster, before any traffic
}

// runKillRecover drives r.ops random updates/reads over r.files files,
// killing the victim at op r.killAt and recovering it in a concurrent
// process under r.mode while the client keeps going. Reads are verified
// against the per-file reference at every step, and the run ends with
// drain + scrub + byte-exact read-back of every file. It returns the
// recovery report.
//
// RNG-stream compatibility: with files == 1 no per-op file pick is drawn,
// so single-file seeds replay the exact op sequences the pinned regression
// tests were minimized against.
func runKillRecover(t *testing.T, r killRecoverRun) *RecoveryReport {
	t.Helper()
	cfg := degradedConfig(r.engine)
	if r.mod != nil {
		r.mod(&cfg)
	}
	c := MustNew(cfg)
	defer c.Env.Close()
	if r.arm != nil {
		r.arm(c)
	}
	cl := c.NewClient()
	admin := c.NewClient()
	victim := r.victim

	var rep *RecoveryReport
	trigger, clientDone, allDone := false, false, false
	c.Env.Go("recovery", func(p *sim.Proc) {
		for !trigger {
			if t.Failed() {
				return // the workload gave up before the kill: do not spin forever
			}
			p.Sleep(200 * time.Microsecond)
		}
		var err error
		rep, err = c.Recover(p, victim, 2, r.mode, admin)
		if err != nil {
			t.Errorf("recover (%s/%s): %v", r.engine, r.mode, err)
		}
	})
	c.Env.Go("workload", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(r.seed))
		fileSize := int64(r.stripesPer) * c.StripeWidth()
		inos := make([]uint64, r.files)
		content := make([][]byte, r.files)
		for f := 0; f < r.files; f++ {
			content[f] = make([]byte, fileSize)
			rng.Read(content[f])
			ino, err := cl.Create(p, fmt.Sprintf("f%d", f), fileSize)
			if err != nil {
				t.Error(err)
				return
			}
			if err := cl.WriteFile(p, ino, content[f]); err != nil {
				t.Error(err)
				return
			}
			inos[f] = ino
		}
		if victim == 0 {
			// Fail the most-loaded OSD so the degraded set is representative.
			most := -1
			for _, osd := range c.OSDs {
				if n := osd.Store().Len(); n > most {
					most = n
					victim = osd.NodeID()
				}
			}
		}
		for i := 0; i < r.ops; i++ {
			if i == r.killAt {
				trigger = true
			}
			f := 0
			if r.files > 1 {
				f = rng.Intn(r.files)
			}
			if rng.Intn(6) == 0 {
				off := int64(rng.Intn(int(fileSize - 512)))
				n := int64(1 + rng.Intn(512))
				got, err := cl.Read(p, inos[f], off, n)
				if err != nil {
					t.Errorf("read f%d at op %d: %v", f, i, err)
					return
				}
				if !bytes.Equal(got, content[f][off:off+n]) {
					t.Errorf("stale read f%d at op %d (off=%d len=%d)", f, i, off, n)
					return
				}
				continue
			}
			off := int64(rng.Intn(int(fileSize - 4096)))
			n := 1 + rng.Intn(4096)
			buf := make([]byte, n)
			rng.Read(buf)
			if err := cl.Update(p, inos[f], off, buf); err != nil {
				t.Errorf("update f%d op %d: %v", f, i, err)
				return
			}
			copy(content[f][off:], buf)
		}
		clientDone = true
		// Recovery may still be running (it owns some stripes' routing);
		// wait it out before the final verification.
		for rep == nil && !t.Failed() {
			p.Sleep(time.Millisecond)
		}
		if t.Failed() {
			return
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		n, err := c.Scrub()
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if want := r.files * r.stripesPer; n != want {
			t.Errorf("scrubbed %d stripes, want %d", n, want)
			return
		}
		for f := 0; f < r.files; f++ {
			got, err := cl.Read(p, inos[f], 0, fileSize)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, content[f]) {
				t.Errorf("content mismatch in file %d after kill-update-recover", f)
				return
			}
		}
		allDone = true
	})
	c.Env.RunTest(t)
	if t.Failed() {
		return rep
	}
	if !clientDone || !allDone || rep == nil {
		t.Fatalf("deadlock: clientDone=%v verified=%v recovered=%v", clientDone, allDone, rep != nil)
	}
	if rep.Blocks == 0 {
		t.Fatal("victim hosted no blocks?")
	}
	// Every gated number is what the gate measured: the barrier is its three
	// phases, and client updates were fenced for exactly the fences.
	if want := rep.Fence1Wait + rep.RegisterTime + rep.SettleTime; rep.DrainTime != want {
		t.Errorf("DrainTime %v, want Fence1Wait+RegisterTime+SettleTime = %v", rep.DrainTime, want)
	}
	gated := rep.TotalTime
	if r.mode == RecoverInterleaved {
		gated = rep.Fence1Wait + rep.RegisterTime + rep.Fence2Wait + rep.ReplayTime
		// The settle and the rebuild both start as the registration ends,
		// and the second fence follows whichever ends last.
		total := rep.Fence1Wait + rep.RegisterTime + max(rep.SettleTime, rep.RebuildTime) + rep.Fence2Wait + rep.ReplayTime
		if rep.TotalTime != total {
			t.Errorf("TotalTime %v, want Fence1Wait+RegisterTime+max(SettleTime, RebuildTime)+Fence2Wait+ReplayTime = %v", rep.TotalTime, total)
		}
	}
	if rep.GatedTime != gated {
		t.Errorf("%s GatedTime %v, want %v", r.mode, rep.GatedTime, gated)
	}
	return rep
}

// runKillUpdateRecover is the classic single-volume run: 6 stripes, one
// client stream, fixed victim.
func runKillUpdateRecover(t *testing.T, engine string, mode RecoverMode, seed int64, ops, killAt int, mod func(*Config)) *RecoveryReport {
	t.Helper()
	return runKillRecover(t, killRecoverRun{
		engine: engine, mode: mode, seed: seed, ops: ops, killAt: killAt,
		files: 1, stripesPer: 6, victim: wire.NodeID(3), mod: mod,
	})
}

// runKillUpdateRecoverMulti is the multi-file variant: `files` files of
// `stripesPer` stripes each, so the workload's stripes — and the failure's
// degraded set — spread across placement groups; the most-loaded OSD dies.
func runKillUpdateRecoverMulti(t *testing.T, engine string, mode RecoverMode, seed int64, ops, killAt, files, stripesPer int) *RecoveryReport {
	t.Helper()
	return runKillRecover(t, killRecoverRun{
		engine: engine, mode: mode, seed: seed, ops: ops, killAt: killAt,
		files: files, stripesPer: stripesPer,
	})
}

// TestKillUpdateRecoverMultiFile runs the randomized multi-file
// kill-update-recover-verify grid over PG-spread stripes: all six engines
// under every recovery protocol (interleaved only under -short).
func TestKillUpdateRecoverMultiFile(t *testing.T) {
	modes := []RecoverMode{RecoverInterleaved}
	if !testing.Short() {
		modes = []RecoverMode{RecoverInterleaved, RecoverDrainFirst, RecoverLogReplay}
	}
	for _, engine := range update.Names() {
		for _, mode := range modes {
			engine, mode := engine, mode
			t.Run(fmt.Sprintf("%s/%s", engine, mode), func(t *testing.T) {
				runKillUpdateRecoverMulti(t, engine, mode, 7001+int64(len(engine)), 400, 150, 3, 3)
			})
		}
	}
}

// TestKillUpdateRecoverInterleavedAllEngines is the headline degraded-mode
// invariant: every engine survives a mid-workload node kill with foreground
// updates and reads flowing through interleaved recovery, byte-for-byte.
func TestKillUpdateRecoverInterleavedAllEngines(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			rep := runKillUpdateRecover(t, engine, RecoverInterleaved, 1009, 400, 150, nil)
			if t.Failed() || rep == nil {
				return
			}
			if engine == "tsue" && rep.ReplayedItems == 0 {
				t.Error("tsue interleaved recovery replayed nothing (DataLog seeds expected)")
			}
		})
	}
}

// TestKillUpdateRecoverDrainFirst covers the gated baseline protocol under
// the same concurrent workload: updates stall at the gate instead of
// journaling, and resume against the remapped placement.
func TestKillUpdateRecoverDrainFirst(t *testing.T) {
	for _, engine := range []string{"tsue", "parix", "pl"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			rep := runKillUpdateRecover(t, engine, RecoverDrainFirst, 2027, 300, 120, nil)
			if t.Failed() || rep == nil {
				return
			}
			if rep.ReplayedItems != 0 {
				t.Errorf("drain-first replayed %d items, want 0", rep.ReplayedItems)
			}
			if rep.GatedTime <= 0 {
				t.Error("drain-first recovery reported no gated time")
			}
		})
	}
}

// TestKillUpdateRecoverLogReplay covers the gated log-replay protocol
// under the same concurrent workload: the settle barrier merges the
// minimum, reconstruction runs gated, and the failed node's DataLog
// replicas plus any in-flight journaled updates replay at cutover.
func TestKillUpdateRecoverLogReplay(t *testing.T) {
	for _, engine := range []string{"tsue", "cord", "fo"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			rep := runKillUpdateRecover(t, engine, RecoverLogReplay, 3061, 300, 120, nil)
			if t.Failed() || rep == nil {
				return
			}
			if engine == "tsue" && rep.ReplayedItems == 0 {
				t.Error("tsue log-replay recovery replayed nothing")
			}
		})
	}
}

// TestKillUpdateRecoverNoDeltaLog drives TSUE's no-DeltaLog (HDD, §5.4)
// configuration through interleaved recovery: parity deltas fan out from
// the data holder at recycle time, so a dead data holder can leave live
// parities torn and its lost data blocks must take the full-stripe repair
// path (stripeRepair) to verify byte-for-byte.
func TestKillUpdateRecoverNoDeltaLog(t *testing.T) {
	rep := runKillUpdateRecover(t, "tsue", RecoverInterleaved, 4093, 400, 150,
		func(cfg *Config) { cfg.EngineOpts.NoDeltaLog = true })
	if t.Failed() || rep == nil {
		return
	}
	if rep.ReplayedItems == 0 {
		t.Error("no-DeltaLog tsue recovery replayed nothing")
	}
}

// TestDegradedReadLostBlock pins the surrogate read path in isolation: with
// a node down and recovery registered but reconstruction not yet done,
// reads of lost blocks must be served by on-the-fly reconstruction plus
// journal overlay, including updates issued while degraded.
func TestDegradedReadLostBlock(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(5))
		fileSize := 4 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, _ := cl.Create(p, "f", fileSize)
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		// Make raw stores consistent, then fail node 3 and register the
		// degraded route by hand — no rebuild yet.
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		victim := wire.NodeID(3)
		c.Fabric.SetDown(victim, true)
		if _, err := c.registerDegraded(p, victim, admin); err != nil {
			t.Error(err)
			return
		}
		// Updates and reads across the whole file: lost blocks must keep
		// serving, with read-your-writes through the journal overlay.
		for i := 0; i < 120; i++ {
			off := int64(rng.Intn(int(fileSize - 2048)))
			n := 1 + rng.Intn(2048)
			buf := make([]byte, n)
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Errorf("degraded update %d: %v", i, err)
				return
			}
			copy(content[off:], buf)
			got, err := cl.Read(p, ino, off, int64(n))
			if err != nil {
				t.Errorf("degraded read %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, buf) {
				t.Errorf("degraded read-your-writes violated at %d", i)
				return
			}
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("whole-file degraded read mismatch")
			return
		}
		// Finish the recovery by hand: rebuild, then cut over.
		rep := &RecoveryReport{}
		lost, err := c.rebuild(p, victim, 4, admin, rep)
		if err != nil {
			t.Error(err)
			return
		}
		c.resetStripeState(lost)
		c.closeGate()
		err = c.cutover(p, victim, admin, rep)
		c.openGate()
		if err != nil {
			t.Error(err)
			return
		}
		if rep.ReplayedItems == 0 {
			t.Error("no journal items replayed despite degraded updates")
		}
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err = cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content mismatch after manual cutover")
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}
