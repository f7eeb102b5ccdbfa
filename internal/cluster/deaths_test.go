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
	"tsue/internal/update"
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

// TestSecondDeathPromotes: window 3 opens over undrained updates, so its
// journals hold seeds, and then node 2, one of its surrogates and its ring
// predecessor, dies through each death verb. Whichever verb it is, the
// journal node 2 kept must be promoted before window 3's cutover needs it.
// A Kill is followed by node 2's own BeginDegraded, so both windows are
// open at once. A whole-file read follows the second death, and both
// nodes are recovered (Recover as the verb recovers node 2 first), with a
// drain, a scrub and a byte-exact read-back after them.
//
// Each cell is one engine at one seed, with TSUE at Copies 3 unless its
// name says copies2: at Copies 2 node 2's DataLog replicas all sat on
// node 3. TSUE's ops400 cells run 400 updates before window 3 instead of
// 40, so its DeltaLog still buffers deltas when node 3 dies (CoRD's
// collector already does after 40). They run at Copies 3 and under Kill
// and BeginDegraded only: neither the DataLog's copies nor node 2's death
// verb bears on node 3's DeltaLog, and the 400-update cells cost the most.
func TestSecondDeathPromotes(t *testing.T) {
	type variant struct {
		name   string
		copies int
		ops    int
	}
	for _, v := range deathVerbs {
		for _, engine := range update.Names() {
			variants := []variant{{"", 3, 40}}
			if engine == "tsue" {
				variants = append(variants, variant{"copies2", 2, 40})
				if v.name != "Recover" {
					variants = append(variants, variant{"ops400", 3, 400})
				}
			}
			for _, vr := range variants {
				for seed := int64(1); seed <= 5; seed++ {
					name := fmt.Sprintf("%s/%s/seed%d", v.name, engine, seed)
					if vr.name != "" {
						name = fmt.Sprintf("%s/%s/%s/seed%d", v.name, engine, vr.name, seed)
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cell := deathCell{engine: engine, seed: seed, copies: vr.copies, ops: vr.ops}
						if err := cell.run(t, v.name, v.die); err != nil {
							t.Error(err)
						}
					})
				}
			}
		}
	}
}

// deathCell is one cell of TestSecondDeathPromotes.
type deathCell struct {
	engine string
	seed   int64
	copies int // TSUE's DataLog copies
	ops    int // updates before window 3 opens
}

// run runs the cell with node 2 dying through verb.
func (sd deathCell) run(t *testing.T, verb string,
	die func(p *sim.Proc, c *Cluster, id wire.NodeID, via *Client) error) error {
	cfg := degradedConfig(sd.engine)
	cfg.EngineOpts.Copies = sd.copies
	c := MustNew(cfg)
	defer c.Env.Close()
	cl, admin := c.NewClient(), c.NewClient()
	err := errors.New("deadlock")
	c.Env.Go("t", func(p *sim.Proc) {
		err = func() error {
			rng := rand.New(rand.NewSource(sd.seed))
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
			if _, ok := fileOps(t, p, cl, ino, content, rng, sd.ops); !ok {
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
			if verb == "Kill" {
				if err := c.BeginDegraded(p, second, admin); err != nil {
					return fmt.Errorf("begin degraded %d: %w", second, err)
				}
			}
			if got, err := cl.Read(p, ino, 0, fileSize); err != nil || !bytes.Equal(got, content) {
				return fmt.Errorf("read after the second death: err %v, match %v", err, bytes.Equal(got, content))
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

// TestThirdDeathFailsNamed: RS(4,2) tolerates two deaths in a stripe.
// Three of stripe 0's data holders die, each through BeginDegraded, on a
// 10-OSD cluster so every window still finds its surrogates. A client read
// of a lost block of that stripe, and the first window's Recover, fail
// with ErrStripeLost, and no other error: the stripe is past the code's
// budget, not one retry away.
func TestThirdDeathFailsNamed(t *testing.T) {
	for _, engine := range update.Names() {
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			cfg := degradedConfig(engine)
			cfg.OSDs = 10
			run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
				admin := c.NewClient()
				fileSize := 6 * c.StripeWidth()
				content := make([]byte, fileSize)
				rand.New(rand.NewSource(7)).Read(content)
				ino, err := cl.Create(p, "f", fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.WriteFile(p, ino, content); err != nil {
					t.Fatal(err)
				}
				osds := c.Placement(wire.StripeID{Ino: ino, Stripe: 0})
				for _, id := range osds[:3] {
					if err := c.BeginDegraded(p, id, admin); err != nil {
						t.Fatalf("begin degraded %d: %v", id, err)
					}
				}
				if _, err := cl.Read(p, ino, 0, c.Cfg.BlockSize); !errors.Is(err, ErrStripeLost) {
					t.Errorf("read of a lost block of the stripe: got %v, want ErrStripeLost", err)
				}
				if _, err := c.Recover(p, osds[0], 2, RecoverInterleaved, admin); !errors.Is(err, ErrStripeLost) {
					t.Errorf("recover %d: got %v, want ErrStripeLost", osds[0], err)
				}
			})
		})
	}
}
