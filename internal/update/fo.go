package update

import (
	"fmt"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// fo is the Full-Overwrite scheme [Aguilera et al., DSN'05]: every update
// rewrites the data block and all M parity blocks in place, synchronously.
// It has the longest update path of all schemes (paper Fig. 1) and every
// access is small and random, but it keeps no logs: recovery needs no merge
// and there is nothing to drain.
type fo struct {
	base
}

func newFO(h Host) *fo { return &fo{base: newBase(h)} }

// Name returns "fo".
func (*fo) Name() string { return "fo" }

// Update overwrites the data block in place and updates every parity
// block in place, synchronously, one after another.
func (e *fo) Update(p *sim.Proc, blk wire.BlockID, off int64, data []byte, _ uint32) error {
	e.lockBlock(p, blk)
	delta, err := e.readModifyWrite(p, blk, off, data)
	// The lock only needs to cover the data RMW: parity deltas commute
	// (XOR) and each parity RMW is made atomic by the parity block's own
	// lock on the remote side.
	e.unlockBlock(blk)
	if err != nil {
		return err
	}
	// Sequentially update each parity block in place — the long path. A
	// dead parity holder is skipped, not an error: once the data RMW is
	// applied, aborting mid-propagation would leave the remaining live
	// parities torn with no log recording the difference. The dead holder's
	// block is rebuilt by re-encoding the (updated) data at recovery.
	s := blk.StripeID()
	osds := e.h.Placement(s)
	k := e.h.Code().K
	for j := 0; j < e.h.Code().M; j++ {
		if !e.h.Alive(osds[k+j]) {
			continue
		}
		pd := mulDelta(e.h.Code(), j, int(blk.Index), delta)
		req := &wire.ParityDelta{Blk: e.parityBlock(s, j), Off: off, Data: pd, Sum: wire.Checksum(pd)}
		if err := e.callAck(p, osds[k+j], req); err != nil {
			if !e.h.Alive(osds[k+j]) {
				continue // died mid-propagation; recovery re-encodes
			}
			return fmt.Errorf("fo: parity %d: %w", j, err)
		}
	}
	return nil
}

// Handle applies incoming parity deltas in place.
func (e *fo) Handle(p *sim.Proc, from wire.NodeID, m wire.Msg) (wire.Msg, bool) {
	pd, ok := m.(*wire.ParityDelta)
	if !ok {
		return nil, false
	}
	return errAck(e.applyParityDelta(p, pd.Blk, pd.Off, pd.Data)), true
}

// Merge is a no-op: FO keeps no logs, so its stores are always
// stripe-consistent.
func (e *fo) Merge(*sim.Proc, Scope) error { return nil }

// Pending always reports false.
func (e *fo) Pending(Scope) bool { return false }

// MemBytes is always zero: FO holds no log memory.
func (e *fo) MemBytes() int64 { return 0 }

// PeakMemBytes is always zero: FO holds no log memory.
func (e *fo) PeakMemBytes() int64 { return 0 }
