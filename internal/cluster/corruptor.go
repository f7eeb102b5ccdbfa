package cluster

import (
	"tsue/internal/netsim"
	"tsue/internal/wire"
)

// FlipCorruptor returns a netsim.Corruptor that flips one byte in every
// rate-th data-carrying, checksum-bearing payload crossing the fabric
// (request or response), cloning so the sender's buffers stay intact. Every
// flip must be caught by a checksum verify point (CorruptionsDetected).
//
// It targets the client-facing and repair paths: PutBlock, ReadResp,
// Update, DegradedUpdate and JournalReplica. The engines' internal fan-out
// messages (DeltaAppend, ParixAppend, ParityDelta, LogReplica,
// ReplayUpdate) carry Sums too and are verified at OSD dispatch, but they
// are deliberately left alone: a flipped XOR delta rejected mid-fan-out
// would make the client's retry re-apply the delta to parities that
// already took it, which is not idempotent. The wire unit tests cover
// their detection path instead.
func FlipCorruptor(rate int) netsim.Corruptor {
	seen := 0
	flip := func(data []byte) ([]byte, bool) {
		if len(data) == 0 {
			return nil, false
		}
		seen++
		if seen%rate != 0 {
			return nil, false
		}
		cp := append([]byte(nil), data...)
		cp[len(cp)/2] ^= 0xff
		return cp, true
	}
	return func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool) {
		switch v := m.(type) {
		case *wire.PutBlock:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		case *wire.ReadResp:
			if wire.AckErr(v, nil) == nil {
				if data, ok := flip(v.Data); ok {
					cp := *v
					cp.Data = data
					return &cp, true
				}
			}
		case *wire.Update:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		case *wire.DegradedUpdate:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		case *wire.JournalReplica:
			if data, ok := flip(v.Data); ok {
				cp := *v
				cp.Data = data
				return &cp, true
			}
		}
		return nil, false
	}
}
