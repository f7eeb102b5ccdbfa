package cluster

// Two degraded windows at once: a stripe that holds both failed nodes is
// served by the window that opened first, and when either window is
// recovered first, its cutover hands that stripe's records to the other
// window (land, rule 1), on top of nothing newer.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// fileOps drives count update+read-back pairs at random offsets anywhere in
// the file, verifying read-your-writes at every step, and returns the
// ranges it wrote.
func fileOps(t *testing.T, p *sim.Proc, cl *Client, ino uint64, content []byte,
	rng *rand.Rand, count int) ([][2]int64, bool) {
	t.Helper()
	var ranges [][2]int64
	for i := 0; i < count; i++ {
		n := 1 + rng.Intn(1024)
		off := rng.Int63n(int64(len(content) - n))
		buf := make([]byte, n)
		rng.Read(buf)
		if err := cl.Update(p, ino, off, buf); err != nil {
			t.Errorf("update %d: %v", i, err)
			return nil, false
		}
		copy(content[off:], buf)
		ranges = append(ranges, [2]int64{off, int64(n)})
		got, err := cl.Read(p, ino, off, int64(n))
		if err != nil {
			t.Errorf("read %d: %v", i, err)
			return nil, false
		}
		if !bytes.Equal(got, buf) {
			t.Errorf("read-your-writes violated at %d", i)
			return nil, false
		}
	}
	return ranges, true
}

// TestRecoverTwoWindows opens windows for nodes 3 and 7 in both orders,
// with undrained updates over the whole file before the first opening and
// between the two, reads the whole file back after the second opening,
// rewrites each range written between them, and recovers the nodes in both
// orders (interleaved). Both recoveries, a drain, a scrub and a byte-exact
// read-back must pass on every engine: a stripe both nodes hold has its
// newest bytes in the first-opened window's journal, and whichever
// recovers first must not replay older bytes over them.
func TestRecoverTwoWindows(t *testing.T) {
	orders := [][2]wire.NodeID{{3, 7}, {7, 3}}
	for _, engine := range update.Names() {
		for _, open := range orders {
			for _, rec := range orders {
				name := fmt.Sprintf("%s/open%d-%d/recover%d-%d", engine, open[0], open[1], rec[0], rec[1])
				t.Run(name, func(t *testing.T) {
					if err := recoverTwoWindows(t, engine, open, rec); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// recoverTwoWindows runs one case of TestRecoverTwoWindows.
func recoverTwoWindows(t *testing.T, engine string, open, rec [2]wire.NodeID) error {
	c := MustNew(degradedConfig(engine))
	defer c.Env.Close()
	cl, admin := c.NewClient(), c.NewClient()
	err := errors.New("deadlock")
	c.Env.Go("t", func(p *sim.Proc) {
		err = func() error {
			rng := rand.New(rand.NewSource(67))
			fileSize := 6 * c.StripeWidth()
			content := make([]byte, fileSize)
			rng.Read(content)
			ino, err := cl.Create(p, "f", fileSize)
			if err != nil {
				return err
			}
			if err := cl.WriteFile(p, ino, content); err != nil {
				return err
			}
			if _, ok := fileOps(t, p, cl, ino, content, rng, 30); !ok {
				return errors.New("updates before the windows")
			}
			if err := c.BeginDegraded(p, open[0], admin); err != nil {
				return fmt.Errorf("begin degraded %d: %w", open[0], err)
			}
			between, ok := fileOps(t, p, cl, ino, content, rng, 30)
			if !ok {
				return fmt.Errorf("updates after opening %d", open[0])
			}
			if err := c.BeginDegraded(p, open[1], admin); err != nil {
				return fmt.Errorf("begin degraded %d: %w", open[1], err)
			}
			if got, err := cl.Read(p, ino, 0, fileSize); err != nil || !bytes.Equal(got, content) {
				return fmt.Errorf("read after opening %d: err %v, match %v", open[1], err, bytes.Equal(got, content))
			}
			for _, r := range between {
				buf := make([]byte, r[1])
				rng.Read(buf)
				if err := cl.Update(p, ino, r[0], buf); err != nil {
					return fmt.Errorf("rewrite after opening %d: %w", open[1], err)
				}
				copy(content[r[0]:], buf)
			}
			for _, id := range rec {
				if _, err := c.Recover(p, id, 2, RecoverInterleaved, admin); err != nil {
					return fmt.Errorf("recover %d: %w", id, err)
				}
			}
			if err := c.DrainAll(p, admin); err != nil {
				return err
			}
			if _, err := c.Scrub(); err != nil {
				return fmt.Errorf("scrub: %w", err)
			}
			if got, err := cl.Read(p, ino, 0, fileSize); err != nil || !bytes.Equal(got, content) {
				return fmt.Errorf("read-back after recovery: err %v, match %v", err, bytes.Equal(got, content))
			}
			return nil
		}()
	})
	c.Env.RunTest(t)
	return err
}
