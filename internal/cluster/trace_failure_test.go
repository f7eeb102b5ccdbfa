package cluster

// Trace-through-failure: replay synthetic Ali-Cloud / Ten-Cloud traces
// (reads included, per the generators' published read/write mix) across a
// failure window — an OSD dies mid-replay and recovers concurrently under
// interleaved mode while the trace keeps going. Every read is checked
// against the reference (read-your-writes through log overlays, surrogate
// journals and on-the-fly reconstruction), and the run ends with a drain,
// a scrub, and byte-exact read-back. This is the first step toward the
// roadmap's trace-driven degraded workloads: the same trace machinery the
// harness replays for throughput numbers, driven through the failure
// window with full verification.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// replayTraceThroughFailure drives n trace ops from the given profile over
// `files` files, failing the most-loaded OSD at op killAt with a concurrent
// interleaved recovery.
func replayTraceThroughFailure(t *testing.T, engine string, prof trace.Profile, seed int64, ops, killAt, files int) {
	t.Helper()
	cfg := degradedConfig(engine)
	c := MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	admin := c.NewClient()

	fileSize := 3 * c.StripeWidth()
	prof.WorkingSet = fileSize // scope the trace to one file's address space

	var rep *RecoveryReport
	var victim wire.NodeID
	trigger, done := false, false
	c.Env.Go("recovery", func(p *sim.Proc) {
		for !trigger {
			p.Sleep(200 * time.Microsecond)
		}
		var err error
		rep, err = c.Recover(p, victim, 2, RecoverInterleaved, admin)
		if err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	c.Env.Go("trace-replay", func(p *sim.Proc) {
		gens := make([]*trace.Generator, files)
		inos := make([]uint64, files)
		content := make([][]byte, files)
		for f := 0; f < files; f++ {
			gens[f] = trace.MustGenerator(prof, seed+int64(f)*7919)
			content[f] = make([]byte, fileSize)
			for i := range content[f] {
				content[f][i] = byte(seed) + byte(i*7+f*13)
			}
			ino, err := cl.Create(p, fmt.Sprintf("t%d", f), fileSize)
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
		most := -1
		for _, osd := range c.OSDs {
			if n := osd.Store().Len(); n > most {
				most = n
				victim = osd.NodeID()
			}
		}
		for i := 0; i < ops; i++ {
			if i == killAt {
				trigger = true
			}
			f := i % files
			op := gens[f].Next()
			off := op.Off
			size := int64(op.Size)
			// The test file is far smaller than a production volume; clamp
			// trace requests into its address space (the generator can emit
			// negative offsets when a request exceeds the working set).
			if size > fileSize {
				size = fileSize
			}
			if off < 0 {
				off = 0
			}
			if off+size > fileSize {
				off = fileSize - size
			}
			if op.Kind == trace.Write {
				// Deterministic payload derived from the op index.
				buf := make([]byte, size)
				for j := range buf {
					buf[j] = byte(i*31 + j + f)
				}
				if err := cl.Update(p, inos[f], off, buf); err != nil {
					t.Errorf("trace op %d (write f%d off=%d): %v", i, f, off, err)
					return
				}
				copy(content[f][off:], buf)
			} else {
				got, err := cl.Read(p, inos[f], off, size)
				if err != nil {
					t.Errorf("trace op %d (read f%d off=%d): %v", i, f, off, err)
					return
				}
				if !bytes.Equal(got, content[f][off:off+size]) {
					t.Errorf("trace op %d: stale read f%d off=%d len=%d", i, f, off, size)
					return
				}
			}
		}
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
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		for f := 0; f < files; f++ {
			got, err := cl.Read(p, inos[f], 0, fileSize)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, content[f]) {
				t.Errorf("post-recovery content mismatch in file %d", f)
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

// TestTraceThroughFailure replays both cloud-trace profiles across a
// failure window (Ten-Cloud only without -short).
func TestTraceThroughFailure(t *testing.T) {
	ws := int64(1) << 20 // placeholder; replayTraceThroughFailure rescopes it
	cases := []struct {
		name string
		prof trace.Profile
	}{
		{"ali", trace.AliCloud(ws)},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name string
			prof trace.Profile
		}{"ten", trace.TenCloud(ws)})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			replayTraceThroughFailure(t, "tsue", tc.prof, 97, 500, 150, 2)
		})
	}
}
