package update_test

// End-to-end consistency: after a randomized update/recycle/drain workload,
// every stripe of every scheme must re-encode to its stored parity
// (rs.Code.Verify, via cluster.Scrub) and reads must return the reference
// content. Unit sizes are tiny relative to the update volume so units seal
// and recycle constantly, and TSUE runs with RecycleBatch > 1 so the
// batched multi-unit recycler — extent merging across units, the batched
// Equation (5) fold, and the single RMW — is on the hot path throughout.
// The mid-run drains force recycle/append interleavings that a single
// end-of-run drain would never see.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/update"
)

func consistencyConfig(engine string, batch int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.OSDs = 8
	cfg.K, cfg.M = 4, 2
	cfg.BlockSize = 16 << 10
	cfg.Engine = engine
	cfg.EngineOpts = update.Options{
		UnitSize:         24 << 10,
		MaxUnits:         4,
		Pools:            2,
		Copies:           2,
		RecycleBatch:     batch,
		RecycleThreshold: 48 << 10,
		PLRReserve:       8 << 10,
		CordBufferSize:   24 << 10,
	}
	return cfg
}

// runWorkload replays ops random updates (with occasional reads and
// mid-run drains) against a fresh cluster and returns the first error; the
// final state is drained, scrubbed and read back against the reference.
func runWorkload(t *testing.T, cfg cluster.Config, seed int64, ops int) {
	t.Helper()
	c := cluster.MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	done := false
	c.Env.Go("workload", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		fileSize := 3 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, err := cl.Create(p, "f", fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < ops; i++ {
			switch {
			case rng.Intn(40) == 0:
				// Mid-run drain: flushes every layer while later updates
				// will immediately dirty them again.
				if err := c.DrainAll(p, cl); err != nil {
					t.Errorf("mid-run drain at op %d: %v", i, err)
					return
				}
			case rng.Intn(8) == 0:
				off := int64(rng.Intn(int(fileSize - 512)))
				n := int64(1 + rng.Intn(512))
				got, err := cl.Read(p, ino, off, n)
				if err != nil {
					t.Errorf("read at op %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, content[off:off+n]) {
					t.Errorf("stale read at op %d (off=%d len=%d)", i, off, n)
					return
				}
			default:
				// Zipf-ish offsets: half the updates hammer the first
				// stripe so extents overlap and merge across units.
				limit := int(fileSize - 8192)
				if rng.Intn(2) == 0 {
					limit = int(c.StripeWidth() - 8192)
				}
				off := int64(rng.Intn(limit))
				n := 1 + rng.Intn(8192)
				buf := make([]byte, n)
				rng.Read(buf)
				if err := cl.Update(p, ino, off, buf); err != nil {
					t.Errorf("update %d: %v", i, err)
					return
				}
				copy(content[off:], buf)
			}
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Error(err)
			return
		}
		n, err := c.Scrub() // rs.Code.Verify on every stripe
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if n != 3 {
			t.Errorf("scrubbed %d stripes, want 3", n)
			return
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content mismatch after randomized workload")
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("workload deadlocked")
	}
}

// TestRandomWorkloadConsistencyAllSchemes runs the randomized
// update/recycle/drain workload for each of the six schemes.
func TestRandomWorkloadConsistencyAllSchemes(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			runWorkload(t, consistencyConfig(engine, 4), 101, 400)
		})
	}
}

// TestTsueRecycleBatchSizes sweeps the recycler batch knob: every batch
// size must leave every stripe verifiable, and the batched paths must agree
// with the unbatched (batch=1, the paper's behavior) baseline.
func TestTsueRecycleBatchSizes(t *testing.T) {
	for _, batch := range []int{1, 2, 3, 8} {
		batch := batch
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			runWorkload(t, consistencyConfig("tsue", batch), 202, 300)
		})
	}
}

// TestTsueBatchedAblations drives the batched recycler through the
// no-locality ablations (raw record logs) and the no-DeltaLog config, whose
// recycle paths differ structurally.
func TestTsueBatchedAblations(t *testing.T) {
	mods := map[string]func(*update.Options){
		"no-data-locality":   func(o *update.Options) { o.NoDataLocality = true },
		"no-parity-locality": func(o *update.Options) { o.NoParityLocality = true },
		"no-delta-log":       func(o *update.Options) { o.NoDeltaLog = true },
		"exclusive-log":      func(o *update.Options) { o.NoLogPool = true },
	}
	for name, mod := range mods {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			cfg := consistencyConfig("tsue", 4)
			mod(&cfg.EngineOpts)
			runWorkload(t, cfg, 303, 250)
		})
	}
}
