package cluster

import (
	"fmt"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// TestRebuildWaitsForItsStripe: interleaved recovery without a pre-opened
// window runs its settle barrier beside the rebuild, and a block is
// reconstructed only once its own stripe has settled. Under the randomized
// kill-update-recover workload (all six engines, salt 0 and eight tie
// salts), a hook on every RecoverBlock checks at its arrival that no live
// engine holds state of any byte of the block's stripe, and counts the
// requests that arrive while the window is still settling: at least one
// must, or the two phases did not overlap. The settle check holds for a
// RecoverBlock that re-encodes a stripe's live parities at the settle
// (reencode) as well, but only the rebuilds, of blocks placed on the
// victim, are counted. runKillRecover ends with a drain, a scrub and a
// byte-exact read-back, and checks the phase times.
func TestRebuildWaitsForItsStripe(t *testing.T) {
	for _, engine := range update.Names() {
		for salt := uint64(0); salt <= 8; salt++ {
			t.Run(fmt.Sprintf("%s/salt%d", engine, salt), func(t *testing.T) {
				var requests, overlapped int
				var unsettled []string
				rep := runKillRecover(t, killRecoverRun{
					engine: engine, mode: RecoverInterleaved, seed: 1009, ops: 400, killAt: 150,
					files: 1, stripesPer: 6, victim: 3,
					arm: func(c *Cluster) {
						c.Env.SetTieSalt(salt)
						for _, o := range c.OSDs {
							h := o.handle
							err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
								if v, ok := m.(*wire.RecoverBlock); ok {
									s := v.Blk.StripeID()
									if c.Placement(s)[v.Blk.Index] == 3 {
										requests++
										if st := c.degraded[3]; st != nil && st.settling {
											overlapped++
										}
									}
									for _, peer := range c.OSDs {
										if !c.Fabric.Down(peer.id) && peer.engine.Pending(update.Bytes(s, 0, c.Cfg.BlockSize)) {
											unsettled = append(unsettled, fmt.Sprintf("%v recovered at %v while node %d holds state of its stripe", v.Blk, p.Now(), peer.id))
										}
									}
								}
								return h(p, from, m)
							})
							if err != nil {
								t.Error(err)
							}
						}
					},
				})
				for _, u := range unsettled {
					t.Error(u)
				}
				if t.Failed() || rep == nil {
					return
				}
				if requests != rep.Blocks {
					t.Errorf("%d RecoverBlock requests for %d blocks", requests, rep.Blocks)
				}
				if overlapped == 0 {
					t.Errorf("no RecoverBlock arrived while the settle ran (settle %v, rebuild %v)", rep.SettleTime, rep.RebuildTime)
				}
			})
		}
	}
}
