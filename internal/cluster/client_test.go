package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// crossingReadConfig is degradedConfig with blocks large enough for two
// 64 KiB halves on either side of a block boundary.
func crossingReadConfig() Config {
	cfg := degradedConfig("tsue")
	cfg.BlockSize = 256 << 10
	return cfg
}

// writeCrossingFile creates a file of the given number of stripes with
// seeded random content and returns its inode and content.
func writeCrossingFile(t *testing.T, p *sim.Proc, c *Cluster, cl *Client, stripes int) (uint64, []byte) {
	t.Helper()
	content := make([]byte, int64(stripes)*c.StripeWidth())
	rand.New(rand.NewSource(55)).Read(content)
	ino, err := cl.Create(p, "f", int64(len(content)))
	if err == nil {
		err = cl.WriteFile(p, ino, content)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ino, content
}

// timedRead reads [off, off+size) of ino and returns the data and the sim
// time the read took.
func timedRead(t *testing.T, p *sim.Proc, cl *Client, ino uint64, off, size int64) ([]byte, time.Duration) {
	t.Helper()
	start := p.Now()
	got, err := cl.Read(p, ino, off, size)
	if err != nil {
		t.Fatalf("read [%d, +%d): %v", off, size, err)
	}
	return got, p.Now() - start
}

// TestCrossingReadFansOut holds the parallel block pieces of a read: on an
// idle cluster, a read of two equal 64 KiB halves on either side of a block
// boundary takes about as long as its slower half alone (a serial walk took
// the sum), and returns the file's bytes exactly. Both block boundaries a
// read can cross are covered: two data blocks of one stripe, and the last
// data block of a stripe with block 0 of the next.
func TestCrossingReadFansOut(t *testing.T) {
	const half = 64 << 10
	cfg := crossingReadConfig()
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		ino, content := writeCrossingFile(t, p, c, cl, 2)
		bs, sw := c.Cfg.BlockSize, c.StripeWidth()
		for _, tc := range []struct {
			name     string
			boundary int64
		}{
			{"same-stripe", bs},
			{"next-stripe", sw},
		} {
			off := tc.boundary - half
			_, lo := timedRead(t, p, cl, ino, off, half)
			_, hi := timedRead(t, p, cl, ino, tc.boundary, half)
			got, both := timedRead(t, p, cl, ino, off, 2*half)
			if !bytes.Equal(got, content[off:off+2*half]) {
				t.Fatalf("%s: crossing read returned wrong bytes", tc.name)
			}
			slower := max(lo, hi)
			t.Logf("%s: halves alone %v and %v, crossing read %v", tc.name, lo, hi, both)
			if both >= slower*5/4 {
				t.Errorf("%s: crossing read took %v, not under 1.25x its slower half alone (%v): its pieces did not overlap",
					tc.name, both, slower)
			}
		}
	})
}

// TestCrossingReadDegradedPiece reads across the boundary of a degraded
// stripe s (its last data block) and a healthy stripe s+1 (block 0) inside a
// BeginDegraded window: the op's DegradedRead to the surrogate and its
// ReadBlock to the home OSD are in flight together, under one root span, and
// the bytes are exact.
func TestCrossingReadDegradedPiece(t *testing.T) {
	const half = 64 << 10
	cfg := crossingReadConfig()
	cfg.TraceSample = 1
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		const stripes = 8
		ino, content := writeCrossingFile(t, p, c, cl, stripes)
		// A victim that holds a block of stripe s but none of stripe s+1.
		var s uint32
		var victim wire.NodeID
		for s = 0; s+1 < stripes && victim == 0; s++ {
			next := c.Placement(wire.StripeID{Ino: ino, Stripe: s + 1})
			for _, id := range c.Placement(wire.StripeID{Ino: ino, Stripe: s}) {
				if !slices.Contains(next, id) {
					victim = id
					break
				}
			}
		}
		if victim == 0 {
			t.Fatal("every stripe pair shares its placement")
		}
		s-- // the loop stepped past the stripe it found
		if err := c.BeginDegraded(p, victim, c.NewClient()); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.degradedRoute(wire.StripeID{Ino: ino, Stripe: s}); !ok {
			t.Fatalf("stripe %d not degraded after node %d died", s, victim)
		}
		if _, _, ok := c.degradedRoute(wire.StripeID{Ino: ino, Stripe: s + 1}); ok {
			t.Fatalf("stripe %d degraded, though node %d holds none of it", s+1, victim)
		}
		off := int64(s+1)*c.StripeWidth() - half
		first := len(c.Obs.Tracer.Spans())
		got, err := cl.Read(p, ino, off, 2*half)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content[off:off+2*half]) {
			t.Fatal("crossing degraded read returned wrong bytes")
		}
		spans := c.Obs.Tracer.Spans()[first:]
		var roots []uint64
		for _, sp := range spans {
			if sp.Parent == 0 {
				roots = append(roots, sp.ID)
			}
		}
		if len(roots) != 1 {
			t.Fatalf("crossing read recorded %d root spans, want 1", len(roots))
		}
		// The client's own RPCs hang off the root; the surrogate's
		// reconstruction reads hang deeper.
		var dr, rb []time.Duration // [start, end] of each RPC
		for _, sp := range spans {
			switch {
			case sp.Parent != roots[0]:
			case sp.Name == "rpc:DegradedRead":
				dr = append(dr, sp.Start, sp.End)
			case sp.Name == "rpc:ReadBlock":
				rb = append(rb, sp.Start, sp.End)
			}
		}
		if len(dr) != 2 || len(rb) != 2 {
			t.Fatalf("crossing read sent %d DegradedRead and %d ReadBlock RPCs, want 1 each", len(dr)/2, len(rb)/2)
		}
		if dr[0] >= rb[1] || rb[0] >= dr[1] {
			t.Errorf("DegradedRead [%v, %v] and ReadBlock [%v, %v] of one read were not in flight together",
				dr[0], dr[1], rb[0], rb[1])
		}
	})
}

// TestCrossingReadPieceFails holds a crossing read's error path: when one
// piece fails for good, Read returns nil and that piece's error.
func TestCrossingReadPieceFails(t *testing.T) {
	const half = 64 << 10
	errBroken := errors.New("broken block")
	cfg := crossingReadConfig()
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		ino, _ := writeCrossingFile(t, p, c, cl, 1)
		bad := wire.BlockID{Ino: ino, Stripe: 0, Index: 1}
		home := c.OSDs[c.Placement(bad.StripeID())[bad.Index]-1]
		if err := c.Fabric.SetHandler(home.NodeID(), func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			if rb, ok := m.(*wire.ReadBlock); ok && rb.Blk == bad {
				return &wire.ReadResp{Err: errBroken}
			}
			return home.handle(p, from, m)
		}); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(p, ino, c.Cfg.BlockSize-half, 2*half)
		if !errors.Is(err, errBroken) {
			t.Fatalf("read with a broken piece returned error %v, want %v", err, errBroken)
		}
		if got != nil {
			t.Fatalf("read with a broken piece returned %d bytes, want nil", len(got))
		}
	})
}

// bounceCall is TokenBucket{MaxInflight: 1} that also bounces its n-th
// admission request (counting from 1), so a test can pick which request an
// overload lands on.
type bounceCall struct {
	TokenBucket
	n, calls int
}

func (b *bounceCall) Admit(inflight int) bool {
	b.calls++
	return b.calls != b.n && b.TokenBucket.Admit(inflight)
}

// TestAdmissionCountsClientOps holds that admission is per client op, not
// per block: a Read or an Update that crosses a block boundary is admitted
// once (one AdmitOp round trip, one slot), and when its admission is
// bounced it returns ErrOverload with none of its blocks applied, so the
// submitter can resubmit it whole.
func TestAdmissionCountsClientOps(t *testing.T) {
	cfg := testConfig("tsue")
	cfg.Admission = &bounceCall{TokenBucket: TokenBucket{MaxInflight: 1}, n: 6}
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		content := make([]byte, c.StripeWidth())
		ino, err := cl.Create(p, "f", int64(len(content)))
		if err == nil {
			err = cl.WriteFile(p, ino, content)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Every op below spans blocks 0 and 1.
		off := c.Cfg.BlockSize - 100
		admitted := func() int64 { return c.AdmissionStats().Admitted }
		before := admitted()
		if _, err := cl.Read(p, ino, off, 200); err != nil {
			t.Fatal(err)
		}
		if got := admitted() - before; got != 1 {
			t.Errorf("crossing read admitted %d times, want 1", got)
		}
		// Each round reads the range, updates it and reads it back: three
		// admission requests, so the second round's update is request 6
		// and is bounced.
		for i, want := range []error{nil, ErrOverload} {
			data := bytes.Repeat([]byte{byte(i + 1)}, 200)
			old, err := cl.Read(p, ino, off, 200)
			if err != nil {
				t.Fatal(err)
			}
			before := admitted()
			err = cl.Update(p, ino, off, data)
			if err != nil && !errors.Is(err, ErrOverload) {
				t.Fatalf("crossing update %d: %v", i, err)
			}
			if !errors.Is(err, want) {
				t.Errorf("crossing update %d: error %v, want %v", i, err, want)
			}
			n := admitted() - before
			got, rerr := cl.Read(p, ino, off, 200)
			if rerr != nil {
				t.Fatal(rerr)
			}
			switch {
			case err == nil && n != 1:
				t.Errorf("crossing update %d admitted %d times, want 1", i, n)
			case err == nil && !bytes.Equal(got, data):
				t.Errorf("crossing update %d did not apply all of its blocks", i)
			case err != nil && !bytes.Equal(got, old):
				t.Errorf("bounced crossing update %d applied some of its blocks", i)
			}
		}
		if st := c.AdmissionStats(); st.Rejected != 1 || st.Inflight != 0 {
			t.Fatalf("admission stats %+v, want 1 rejection and nothing in flight", st)
		}
	})
}
