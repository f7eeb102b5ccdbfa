package cluster

// Hedged degraded reads in isolation: with a node down and the degraded
// route registered (no rebuild yet), reads of lost blocks reconstruct on
// the fly. When one survivor straggles, the hedge must fire exactly after
// Config.HedgeDelay, win from the alternate survivor set, and leave the
// loser's late result harmlessly unconsumed; when every survivor is
// healthy, the hedge must never fire. Plus the pinned wire-corruption
// regression: a byte flipped in a reconstruction shard response surfaces
// wire.ErrChecksum — never silently wrong bytes.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// hedgeHarness is one degraded-window fixture: file written and drained,
// victim down, degraded route registered, and a lost data block selected
// whose first-survivor host is NOT the serving surrogate (so slowing it
// stalls only the primary reconstruction leg).
type hedgeHarness struct {
	c         *Cluster
	cl        *Client
	content   []byte
	ino       uint64
	victim    wire.NodeID
	blk       wire.BlockID // lost data block under test
	blkOff    int64        // file offset of blk's first byte
	straggler wire.NodeID  // host of blk's first surviving shard
	surrogate wire.NodeID
}

func hedgeSetup(t *testing.T, p *sim.Proc, c *Cluster, cl, admin *Client) *hedgeHarness {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	fileSize := 3 * c.StripeWidth()
	content := make([]byte, fileSize)
	rng.Read(content)
	ino, err := cl.Create(p, "f", fileSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile(p, ino, content); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainAll(p, admin); err != nil {
		t.Fatal(err)
	}
	victim := wire.NodeID(3)
	c.Fabric.SetDown(victim, true)
	st, err := c.registerDegraded(p, victim, admin)
	if err != nil {
		t.Fatal(err)
	}
	h := &hedgeHarness{c: c, cl: cl, content: content, ino: ino, victim: victim}
	// Pick a lost DATA block whose first surviving shard's host differs from
	// the PG's surrogate: slowing that host stalls the primary fan-in leg
	// without slowing the surrogate (or the alternate leg, which skips the
	// first survivor whenever more than K shards are live).
	for _, blk := range c.lostBlocks(victim) {
		if int(blk.Index) >= c.Cfg.K {
			continue
		}
		s := blk.StripeID()
		osds := c.Placement(s)
		first := wire.NodeID(0)
		for i := 0; i < c.Cfg.K+c.Cfg.M; i++ {
			if uint16(i) == blk.Index || c.Fabric.Down(osds[i]) {
				continue
			}
			first = osds[i]
			break
		}
		sur := st.surr[c.PG(s)]
		if first == 0 || first == sur {
			continue
		}
		h.blk = blk
		h.blkOff = int64(blk.Stripe)*c.StripeWidth() + int64(blk.Index)*c.Cfg.BlockSize
		h.straggler = first
		h.surrogate = sur
		return h
	}
	t.Fatal("no lost data block with straggler != surrogate")
	return nil
}

// TestHedgedReadStragglerFiresAndWins pins the full hedging contract: with
// the first-survivor host straggling far past the deadline, every lost-block
// read (a) completes byte-exact, (b) takes at least HedgeDelay (the hedge
// cannot fire early) but far less than the straggler's latency (the
// alternate leg won), and (c) bumps fired/wins exactly once per read. The
// primary legs are still in flight when the reads return; the run draining
// to completion with the content intact is the loser-discard guarantee.
func TestHedgedReadStragglerFiresAndWins(t *testing.T) {
	cfg := degradedConfig("tsue")
	const hedgeDelay = 2 * time.Millisecond
	const stragglerLat = 40 * time.Millisecond
	cfg.HedgeDelay = hedgeDelay
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		h := hedgeSetup(t, p, c, cl, admin)
		if t.Failed() {
			return
		}
		if err := c.Fabric.SetNodeLatency(h.straggler, netsim.Fixed(stragglerLat)); err != nil {
			t.Fatal(err)
		}
		const reads = 3
		for i := 0; i < reads; i++ {
			start := p.Now()
			got, err := cl.Read(p, h.ino, h.blkOff, 4096)
			if err != nil {
				t.Fatalf("hedged read %d: %v", i, err)
			}
			if !bytes.Equal(got, h.content[h.blkOff:h.blkOff+4096]) {
				t.Fatalf("hedged read %d returned wrong bytes", i)
			}
			elapsed := p.Now() - start
			if elapsed < hedgeDelay {
				t.Fatalf("read %d completed in %v < HedgeDelay %v: hedge fired early", i, elapsed, hedgeDelay)
			}
			if elapsed >= stragglerLat {
				t.Fatalf("read %d took %v: waited out the straggler, hedge did not win", i, elapsed)
			}
		}
		fired, wins := c.HedgeStats()
		if fired != reads || wins != reads {
			t.Fatalf("hedge counters fired=%d wins=%d, want %d/%d", fired, wins, reads, reads)
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestHedgeQuietWhenSurvivorsHealthy pins the no-false-hedge side: with
// every survivor fast, reconstructions finish well inside HedgeDelay and
// the hedge must never launch.
func TestHedgeQuietWhenSurvivorsHealthy(t *testing.T) {
	cfg := degradedConfig("tsue")
	cfg.HedgeDelay = 2 * time.Millisecond
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		h := hedgeSetup(t, p, c, cl, admin)
		if t.Failed() {
			return
		}
		for i := 0; i < 5; i++ {
			got, err := cl.Read(p, h.ino, h.blkOff, 4096)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(got, h.content[h.blkOff:h.blkOff+4096]) {
				t.Fatalf("read %d returned wrong bytes", i)
			}
		}
		if fired, wins := c.HedgeStats(); fired != 0 || wins != 0 {
			t.Fatalf("healthy survivors hedged: fired=%d wins=%d", fired, wins)
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestHedgeDisabledWaitsOutStraggler pins HedgeDelay == 0 as a true off
// switch: the read survives the straggler the slow way and no hedge
// machinery runs.
func TestHedgeDisabledWaitsOutStraggler(t *testing.T) {
	cfg := degradedConfig("tsue") // HedgeDelay zero
	const stragglerLat = 10 * time.Millisecond
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		h := hedgeSetup(t, p, c, cl, admin)
		if t.Failed() {
			return
		}
		if err := c.Fabric.SetNodeLatency(h.straggler, netsim.Fixed(stragglerLat)); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		got, err := cl.Read(p, h.ino, h.blkOff, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, h.content[h.blkOff:h.blkOff+4096]) {
			t.Fatal("read returned wrong bytes")
		}
		if elapsed := p.Now() - start; elapsed < stragglerLat {
			t.Fatalf("read took %v < straggler latency %v with hedging off", elapsed, stragglerLat)
		}
		if fired, wins := c.HedgeStats(); fired != 0 || wins != 0 {
			t.Fatalf("hedge ran while disabled: fired=%d wins=%d", fired, wins)
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestDegradedReadCorruptionSurfacesChecksum is the pinned end-to-end
// corruption regression: a byte flipped in flight in a reconstruction
// shard response must surface as wire.ErrChecksum from the fan-in — never
// silently reconstruct wrong bytes — and the client-visible read must
// still succeed byte-exact via retry, with detections matching injections
// one for one.
func TestDegradedReadCorruptionSurfacesChecksum(t *testing.T) {
	cfg := degradedConfig("tsue")
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()
	done := false
	c.Env.Go("t", func(p *sim.Proc) {
		h := hedgeSetup(t, p, c, cl, admin)
		if t.Failed() {
			return
		}
		// One-shot corruptor: flip a byte in the next data-bearing ReadResp
		// (a shard flowing into the surrogate's reconstruction fan-in),
		// leaving its Sum stale. Payloads are cloned — in-flight corruption
		// must not rot the sender's store.
		arm := func() {
			armed := true
			c.Fabric.SetCorruptor(func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool) {
				rr, ok := m.(*wire.ReadResp)
				if !armed || !ok || wire.AckErr(rr, nil) != nil || len(rr.Data) == 0 {
					return nil, false
				}
				armed = false
				cp := *rr
				cp.Data = append([]byte(nil), rr.Data...)
				cp.Data[0] ^= 0xff
				return &cp, true
			})
		}
		// Direct fan-in probe: the reconstruction itself reports ErrChecksum.
		arm()
		sur := c.OSDByID(h.surrogate)
		if _, err := sur.reconstructRange(p, h.blk, 0, 4096, false); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("corrupted shard fan-in: err=%v, want ErrChecksum", err)
		}
		// Client-visible read: first attempt eats the corruption, the retry
		// reconstructs clean.
		arm()
		got, err := cl.Read(p, h.ino, h.blkOff, 4096)
		if err != nil {
			t.Fatalf("read through corruption: %v", err)
		}
		if !bytes.Equal(got, h.content[h.blkOff:h.blkOff+4096]) {
			t.Fatal("read through corruption returned wrong bytes")
		}
		injected := c.Fabric.CorruptionsInjected()
		if injected < 2 {
			t.Fatalf("injected=%d, want >= 2", injected)
		}
		if det := c.CorruptionsDetected(); det != injected {
			t.Fatalf("detections=%d != injections=%d: corruption escaped detection", det, injected)
		}
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}
