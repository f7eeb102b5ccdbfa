package cluster

import (
	"tsue/internal/netsim"
	"tsue/internal/wire"
)

// FlipCorruptor returns a netsim.Corruptor that flips one byte in every
// rate-th non-empty payload of its target types crossing the fabric
// (request or response), on a copy made through the message's layout
// (wire.WithPayload) so the sender's buffers stay intact. Every flip must be
// caught by a checksum verify point (CorruptionsDetected): OSD.handle for a
// request, readData for a ReadResp.
//
// It targets the client-facing and repair paths: PutBlock, ReadResp,
// Update, DegradedUpdate and JournalReplica. The engines' internal fan-out
// messages (DeltaAppend, ParixAppend, ParityDelta, LogReplica,
// ReplayUpdate) carry Sums too and are verified at OSD dispatch, but they
// are deliberately left alone: a flipped XOR delta rejected mid-fan-out
// would make the client's retry re-apply the delta to parities that
// already took it, which is not idempotent.
// TestCorruptMovedPayloadRejectedBeforeAdoption covers their detection
// path instead.
func FlipCorruptor(rate int) netsim.Corruptor {
	seen := 0
	return func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool) {
		switch m.(type) {
		case *wire.PutBlock, *wire.ReadResp, *wire.Update, *wire.DegradedUpdate, *wire.JournalReplica:
		default:
			return nil, false
		}
		data := wire.Payload(m)
		if len(data) == 0 {
			return nil, false
		}
		if seen++; seen%rate != 0 {
			return nil, false
		}
		cp := append([]byte(nil), data...)
		cp[len(cp)/2] ^= 0xff
		return wire.WithPayload(m, cp), true
	}
}
