package cluster

// The payload-ownership rule (ARCHITECTURE, "Payload ownership"), held from
// both sides. A parity delta and a read response are MOVED: built for one
// message, the receiver's from the moment the call is entered, never looked
// at again by the sender. Every other payload is COPIED by whoever keeps it:
// the sender's buffer may alias live state (a journal item, a replica-store
// record, the client's own bytes) and stays the sender's.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// scribble overwrites a buffer whose last legitimate holder is done with it.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xD5
	}
}

// strictOwnership wraps one OSD's dispatch so that a payload survives only
// where the rule says it does. The handler always runs on a byte-identical
// clone. For a copied kind the clone is overwritten as soon as the handler
// has returned — a receiver that kept it by reference now holds garbage,
// while the sender's buffer was never touched. For a moved kind it is the
// SENDER's buffer that is overwritten, on delivery — the receiver may do
// what it likes with its own, and a sender that reads the buffer again
// (a resend, a staging log consulted after the send) reads garbage. Read
// responses are moved too: the caller gets a clone, the buffer the handler
// returned is overwritten.
func strictOwnership(h netsim.Handler) netsim.Handler {
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
		var after [][]byte // clones to overwrite once the handler is done
		// copied and moved swap one payload field of a message copy for a
		// clone, and schedule what the rule allows to be overwritten.
		copied := func(field *[]byte) {
			*field = clone(*field)
			after = append(after, *field)
		}
		moved := func(field *[]byte) {
			sent := *field
			*field = clone(sent)
			scribble(sent)
		}
		switch v := m.(type) {
		case *wire.PutBlock:
			cp := *v
			copied(&cp.Data)
			m = &cp
		case *wire.Update:
			cp := *v
			copied(&cp.Data)
			m = &cp
		case *wire.DegradedUpdate:
			cp := *v
			copied(&cp.Data)
			m = &cp
		case *wire.LogReplica:
			cp := *v
			copied(&cp.Data)
			m = &cp
		case *wire.JournalReplica:
			cp := *v
			copied(&cp.Data)
			m = &cp
		case *wire.ReplayUpdate:
			cp := *v
			copied(&cp.Data)
			m = &cp
		case *wire.ParixAppend:
			cp := *v
			copied(&cp.New)
			copied(&cp.Orig)
			m = &cp
		case *wire.DeltaAppend:
			cp := *v
			if v.Kind == wire.KindParityDelta {
				moved(&cp.Data)
			} else {
				copied(&cp.Data)
			}
			m = &cp
		case *wire.ParityDelta:
			cp := *v
			moved(&cp.Data)
			m = &cp
		}
		resp := h(p, from, m)
		for _, b := range after {
			scribble(b)
		}
		if rr, ok := resp.(*wire.ReadResp); ok && wire.AckErr(rr, nil) == nil {
			cp := *rr
			moved(&cp.Data)
			return &cp
		}
		return resp
	}
}

// TestPayloadOwnershipAllEngines replays the kill-update-recover-verify run
// — client updates and reads, a death, degraded updates and reads through
// the surrogate journal and its quorum copies, an interleaved rebuild, the
// journal and replica replay, the final drain — on every engine with every
// OSD under strictOwnership. Reads are verified at every step and the run
// ends scrubbed clean and byte-exact: nothing but a moved payload is kept by
// reference, and no sender looks at a payload it has moved. It fails the day
// someone adopts client bytes or re-reads a sent parity delta.
func TestPayloadOwnershipAllEngines(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			runKillRecover(t, killRecoverRun{
				engine: engine, mode: RecoverInterleaved, seed: 2217, ops: 220, killAt: 90,
				files: 1, stripesPer: 3,
				arm: func(c *Cluster) {
					for _, o := range c.OSDs {
						if err := c.Fabric.SetHandler(o.id, strictOwnership(o.handle)); err != nil {
							t.Fatal(err)
						}
					}
				},
			})
		})
	}
}

// ownershipCluster is a small quiescent cluster with one preloaded file.
func ownershipCluster(t *testing.T, engine string, body func(p *sim.Proc, c *Cluster, cl *Client, ino uint64, content []byte)) {
	t.Helper()
	c := MustNew(degradedConfig(engine))
	defer c.Env.Close()
	cl := c.NewClient()
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		content := make([]byte, 2*c.StripeWidth())
		for i := range content {
			content[i] = byte(i*7 + i>>8)
		}
		ino, err := cl.Create(p, "f", int64(len(content)))
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		body(p, c, cl, ino, content)
		done = true
	})
	c.Env.RunTest(t)
	if !done && !t.Failed() {
		t.Fatal("deadlock")
	}
}

// TestCorruptMovedPayloadRejectedBeforeAdoption: verify-before-adopt, for
// every request that carries a Sum. OSD.handle verifies each payload before
// any side effect, so a flipped copy of any of them — moved payloads (a
// ParityDelta, a parity-delta DeltaAppend) and copied ones alike — is
// answered with ErrChecksum, counted as exactly one detection, and leaves
// every OSD's stored bytes and versions, engine debt and memory, device and
// degraded journals as they were. A degraded window is open, so the
// DegradedUpdate reaches a real surrogate.
func TestCorruptMovedPayloadRejectedBeforeAdoption(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			ownershipCluster(t, engine, func(p *sim.Proc, c *Cluster, cl *Client, ino uint64, _ []byte) {
				s := wire.StripeID{Ino: ino}
				osds := c.Placement(s)
				k := c.Cfg.K
				failed := osds[len(osds)-1] // the stripe's last parity holder
				if err := c.BeginDegraded(p, failed, cl); err != nil {
					t.Fatal(err)
				}
				_, surrogate, ok := c.degradedRoute(s)
				if !ok {
					t.Fatalf("stripe %v is not degraded after node %d failed", s, failed)
				}
				data := wire.BlockID{Ino: ino}                     // data block 0
				parity := wire.BlockID{Ino: ino, Index: uint16(k)} // first parity block
				kind := wire.KindParityDelta
				if engine == "tsue" || engine == "cord" {
					kind = wire.KindDataDelta
				}
				good := bytes.Repeat([]byte{0x5A}, int(c.Cfg.BlockSize)) // a PutBlock carries a whole block
				sum := wire.Checksum(good)
				rows := []struct {
					to wire.NodeID
					m  wire.Msg
				}{
					{osds[0], &wire.PutBlock{Blk: data, Data: good, Sum: sum}},
					{osds[0], &wire.Update{Blk: data, Data: good, Epoch: c.MDS.authEpochOf(s), Sum: sum}},
					{osds[0], &wire.ReplayUpdate{Blk: data, Data: good, Sum: sum}},
					{surrogate, &wire.DegradedUpdate{Failed: failed, Blk: data, Data: good, Sum: sum}},
					{osds[1], &wire.JournalReplica{Failed: failed, Surrogate: surrogate, Seq: 1, Blk: data, Data: good, Sum: sum}},
					{osds[k], &wire.DeltaAppend{Blk: data, Data: good, Kind: kind, Sum: sum}},
					{osds[k], &wire.ParixAppend{Blk: data, New: good, Sum: sum}},
					{osds[k], &wire.ParityDelta{Blk: parity, Data: good, Sum: sum}},
					{osds[1], &wire.LogReplica{SrcNode: osds[0], Blk: data, Data: good, Sum: sum}},
				}
				for _, r := range rows {
					bad := append([]byte(nil), good...)
					bad[len(bad)/2] ^= 0xff
					m := wire.WithPayload(r.m, bad)
					before, detected := clusterState(c), c.CorruptionsDetected()
					if resp := c.OSDByID(r.to).handle(p, cl.ID(), m); !errors.Is(wire.AckErr(resp, nil), wire.ErrChecksum) {
						t.Errorf("corrupt %s answered %v, want a response carrying ErrChecksum", wire.Name(m), resp)
					}
					if got := c.CorruptionsDetected(); got != detected+1 {
						t.Errorf("corrupt %s: detections went %d -> %d, want +1", wire.Name(m), detected, got)
					}
					if after := clusterState(c); after != before {
						t.Errorf("corrupt %s left a side effect:\nbefore %s\nafter  %s", wire.Name(m), before, after)
					}
				}
			})
		})
	}
}

// clusterState renders everything a rejected message must leave untouched
// on the live OSDs: each stored block's version and bytes, the engine's
// merge debt and log memory, the device counters and the degraded journals.
func clusterState(c *Cluster) string {
	var b strings.Builder
	for _, o := range c.OSDs {
		if c.Fabric.Down(o.id) {
			continue
		}
		fmt.Fprintf(&b, "osd %d: pending %v mem %d dev %+v\n", o.id, o.engine.Pending(update.All), o.engine.MemBytes(), o.dev.Stats())
		for _, blk := range o.store.Blocks() {
			data, _ := o.store.Peek(blk)
			fmt.Fprintf(&b, "  %v v%d %08x\n", blk, o.store.Version(blk), wire.Checksum(data))
		}
		var failed []wire.NodeID
		for f := range o.journals {
			failed = append(failed, f)
		}
		slices.Sort(failed)
		for _, f := range failed {
			j := o.journals[f]
			repl := 0
			for _, items := range j.repl {
				repl += len(items)
			}
			fmt.Fprintf(&b, "  journal %d: seq %d primary %d blocks %d repl %d\n", f, j.nextSeq, j.primary, len(j.order), repl)
		}
	}
	return b.String()
}

// TestClientReadBuffers pins Client.Read's side of the rule: a read inside
// one block hands the caller the verified response payload itself; a read
// that crosses blocks assembles exactly, in one exact-size buffer; size 0 is
// an empty result, no error and no message; and a corrupted response is
// never the buffer that comes back.
func TestClientReadBuffers(t *testing.T) {
	ownershipCluster(t, "tsue", func(p *sim.Proc, c *Cluster, cl *Client, ino uint64, content []byte) {
		bs, sw := c.Cfg.BlockSize, c.StripeWidth()
		// An observer in the corruptor slot: changes nothing, remembers the
		// read responses that crossed the wire.
		var seen []*wire.ReadResp
		c.Fabric.SetCorruptor(func(_, _ wire.NodeID, m wire.Msg) (wire.Msg, bool) {
			if rr, ok := m.(*wire.ReadResp); ok {
				seen = append(seen, rr)
			}
			return nil, false
		})
		read := func(off, size int64) []byte {
			t.Helper()
			seen = seen[:0]
			got, err := cl.Read(p, ino, off, size)
			if err != nil {
				t.Fatalf("read [%d,%d): %v", off, off+size, err)
			}
			if !bytes.Equal(got, content[off:off+size]) {
				t.Fatalf("read [%d,%d): wrong bytes", off, off+size)
			}
			return got
		}

		// Inside one block, up to and including its last byte: the response.
		for _, r := range [][2]int64{{100, 4096}, {bs - 4096, 4096}, {bs, bs}, {sw + 5, 1}} {
			got := read(r[0], r[1])
			if len(seen) != 1 || &got[0] != &seen[0].Data[0] {
				t.Errorf("single-block read [%d,%d) copied the response (%d responses seen)", r[0], r[0]+r[1], len(seen))
			}
		}
		// Across a block boundary, across a stripe boundary, a whole stripe.
		for _, r := range [][3]int64{{bs - 1, 2, 2}, {bs - 100, bs + 200, 3}, {sw - 512, 1024, 2}, {0, sw, int64(c.Cfg.K)}} {
			got := read(r[0], r[1])
			if int64(len(seen)) != r[2] || int64(cap(got)) != r[1] {
				t.Errorf("multi-block read [%d,%d): %d responses (want %d), cap %d (want %d)",
					r[0], r[0]+r[1], len(seen), r[2], cap(got), r[1])
			}
			for _, rr := range seen {
				if &got[0] == &rr.Data[0] {
					t.Errorf("multi-block read [%d,%d) returned a response buffer", r[0], r[0]+r[1])
				}
			}
		}
		// Size 0: empty, no error, nothing sent.
		if got := read(bs+17, 0); got == nil || len(got) != 0 || len(seen) != 0 {
			t.Errorf("zero-size read returned %v after %d responses, want empty and none", got, len(seen))
		}

		// A corrupted response is rejected and retried; what comes back is
		// the clean retry's buffer, never the corrupted clone.
		var badBuf []byte
		c.Fabric.SetCorruptor(func(_, _ wire.NodeID, m wire.Msg) (wire.Msg, bool) {
			rr, ok := m.(*wire.ReadResp)
			if !ok || badBuf != nil {
				return nil, false
			}
			cp := *rr
			cp.Data = append([]byte(nil), rr.Data...)
			cp.Data[0] ^= 0xff
			badBuf = cp.Data
			return &cp, true
		})
		before := c.CorruptionsDetected()
		got := read(3*bs+9, 2048)
		if badBuf == nil || &got[0] == &badBuf[0] || c.CorruptionsDetected() != before+1 {
			t.Errorf("corrupt ReadResp: injected=%v, returned the corrupt buffer=%v, detections +%d (want 1)",
				badBuf != nil, badBuf != nil && &got[0] == &badBuf[0], c.CorruptionsDetected()-before)
		}
		// With every response corrupted the read fails with ErrChecksum
		// rather than ever returning bytes.
		c.Fabric.SetCorruptor(func(_, _ wire.NodeID, m wire.Msg) (wire.Msg, bool) {
			rr, ok := m.(*wire.ReadResp)
			if !ok {
				return nil, false
			}
			cp := *rr
			cp.Data = append([]byte(nil), rr.Data...)
			cp.Data[0] ^= 0xff
			return &cp, true
		})
		if got, err := cl.Read(p, ino, 7, 64); !errors.Is(err, wire.ErrChecksum) || got != nil {
			t.Errorf("always-corrupt read returned (%v, %v), want nil and ErrChecksum", got, err)
		}
	})
}
