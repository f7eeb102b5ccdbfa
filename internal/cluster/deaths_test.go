package cluster

// One death handler: Kill, BeginDegraded and Recover (and a hook's
// MarkDead, killsurrogate_test.go) all take a node down through die, so a
// death means the same thing whichever verb reports it.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// deathVerbs are the blocking ways to take node id down, each returning
// its error.
var deathVerbs = []struct {
	name string
	die  func(p *sim.Proc, c *Cluster, id wire.NodeID, via *Client) error
}{
	{"Kill", func(p *sim.Proc, c *Cluster, id wire.NodeID, via *Client) error {
		_, err := c.Kill(p, id, via)
		return err
	}},
	{"BeginDegraded", func(p *sim.Proc, c *Cluster, id wire.NodeID, via *Client) error {
		return c.BeginDegraded(p, id, via)
	}},
	{"Recover", func(p *sim.Proc, c *Cluster, id wire.NodeID, via *Client) error {
		_, err := c.Recover(p, id, 2, RecoverInterleaved, via)
		return err
	}},
}

// TestDeathVerbsRejectNonOSD: a death verb given an ID that names no OSD,
// one the fabric does not know or a client's, fails, and leaves every node
// up and no window open.
func TestDeathVerbsRejectNonOSD(t *testing.T) {
	for _, v := range deathVerbs {
		for _, target := range []string{"unknown", "client"} {
			t.Run(v.name+"/"+target, func(t *testing.T) {
				run(t, degradedConfig("tsue"), func(p *sim.Proc, c *Cluster, cl *Client) {
					id := wire.NodeID(99)
					if target == "client" {
						id = cl.id
					}
					if err := v.die(p, c, id, cl); err == nil {
						t.Errorf("%s(%d) succeeded", v.name, id)
					}
					if c.degraded[id] != nil {
						t.Errorf("%s(%d) left a window open", v.name, id)
					}
					if c.Fabric.Down(cl.id) {
						t.Errorf("%s(%d) took the client down", v.name, id)
					}
					for _, o := range c.OSDs {
						if c.Fabric.Down(o.id) {
							t.Errorf("%s(%d) took node %d down", v.name, id, o.id)
						}
					}
				})
			})
		}
	}
}

// TestSecondDeathPromotes: window 3 opens over 40 undrained updates, so
// its journals hold seeds, and then node 2, one of its surrogates, dies
// through each death verb. Whichever verb it is, the journal node 2 kept
// must be promoted before window 3's cutover needs it: both nodes are
// recovered (Recover as the verb recovers node 2 first), and a drain, a
// scrub and a byte-exact read-back follow. TSUE runs with Copies: 3.
// CoRD, and TSUE with Copies: 2, fail this grid for reasons that are not
// the death's verb (a stripe's unflushed cross-parity buffer, a single
// DataLog replica); ROADMAP direction 25 owns those cells.
func TestSecondDeathPromotes(t *testing.T) {
	for _, v := range deathVerbs {
		for _, engine := range []string{"fo", "pl", "plr", "parix", "tsue"} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", v.name, engine, seed), func(t *testing.T) {
					t.Parallel()
					if err := secondDeathCell(t, engine, seed, v.name, v.die); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// secondDeathCell runs one cell of TestSecondDeathPromotes.
func secondDeathCell(t *testing.T, engine string, seed int64, verb string,
	die func(p *sim.Proc, c *Cluster, id wire.NodeID, via *Client) error) error {
	cfg := degradedConfig(engine)
	cfg.EngineOpts.Copies = 3
	c := MustNew(cfg)
	defer c.Env.Close()
	cl, admin := c.NewClient(), c.NewClient()
	err := errors.New("deadlock")
	c.Env.Go("t", func(p *sim.Proc) {
		err = func() error {
			rng := rand.New(rand.NewSource(seed))
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
			if _, ok := fileOps(t, p, cl, ino, content, rng, 40); !ok {
				return errors.New("updates before the window")
			}
			failed, second := wire.NodeID(3), wire.NodeID(2)
			if err := c.BeginDegraded(p, failed, admin); err != nil {
				return fmt.Errorf("begin degraded %d: %w", failed, err)
			}
			if !slices.Contains(c.SurrogatesOf(failed), second) {
				return fmt.Errorf("node %d serves no PG of window %d (surrogates %v)", second, failed, c.SurrogatesOf(failed))
			}
			if err := die(p, c, second, admin); err != nil {
				return fmt.Errorf("%s %d: %w", verb, second, err)
			}
			order := []wire.NodeID{failed, second}
			if verb == "Recover" {
				order = order[:1]
			}
			for _, id := range order {
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
