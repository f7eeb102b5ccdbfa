package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// streamBlockSizes are the block sizes the streaming tests use instead of
// degradedConfig's 16 KiB, which would be a single slice: 256 KiB is four
// 64 KiB slices, one whole window, and 324 KiB is five whole slices and a
// 4 KiB tail, so the window moves on.
var streamBlockSizes = []int64{256 << 10, 324 << 10}

// rebuildWatch hooks every OSD's handler to follow the rebuild streams:
// each RebuildRead's size, the slices of one rebuilt block outstanding at
// its sources at once, the requests outstanding per stream, how often a
// stream's source loads its buffer, and the bytes each stream sent. It
// also follows the RecoverBlock requests, each of which streams K shards:
// a rebuild, of a block placement still puts on the victim at arrival, or
// a re-encode of a stripe's live parities at a window's settle
// (reencode), which names a live parity.
type rebuildWatch struct {
	t *testing.T
	c *Cluster
	// inFlight counts, per rebuilt block (target, stripe), the requests
	// outstanding at its sources at each slice offset.
	inFlight map[[2]any]map[int64]int
	// maxSlices is the most slices of one block outstanding at once.
	maxSlices int
	perStream map[uint64]int
	loads     map[uint64]int
	sent      map[uint64]int64
	releases  int
	// rebuilds counts the rebuild requests, and rebuilt holds the index of
	// each stripe's rebuilt block; reencodes counts each stripe's
	// re-encode requests.
	rebuilds  int
	rebuilt   map[wire.StripeID]int
	reencodes map[wire.StripeID]int
}

func watchRebuild(t *testing.T, c *Cluster, victim wire.NodeID) *rebuildWatch {
	w := &rebuildWatch{
		t: t, c: c,
		inFlight:  make(map[[2]any]map[int64]int),
		perStream: make(map[uint64]int),
		loads:     make(map[uint64]int),
		sent:      make(map[uint64]int64),
		rebuilt:   make(map[wire.StripeID]int),
		reencodes: make(map[wire.StripeID]int),
	}
	for _, o := range c.OSDs {
		o, h := o, o.handle
		if err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			if v, ok := m.(*wire.RecoverBlock); ok {
				if s := v.Blk.StripeID(); c.Placement(s)[v.Blk.Index] == victim {
					w.rebuilds++
					w.rebuilt[s] = int(v.Blk.Index)
				} else {
					w.reencodes[s]++
				}
			}
			v, ok := m.(*wire.RebuildRead)
			if !ok {
				return h(p, from, m)
			}
			if v.Size == 0 {
				w.releases++
				return h(p, from, m)
			}
			if v.Size > rebuildSlice {
				t.Errorf("rebuild read of %d bytes, over the %d-byte slice", v.Size, rebuildSlice)
			}
			if o.rebuildBufs[v.Stream] == nil {
				w.loads[v.Stream]++
			}
			key := [2]any{from, v.Blk.StripeID()}
			if w.inFlight[key] == nil {
				w.inFlight[key] = make(map[int64]int)
			}
			w.inFlight[key][v.Off]++
			w.maxSlices = max(w.maxSlices, len(w.inFlight[key]))
			if n := len(w.inFlight[key]); n > rebuildWindow {
				t.Errorf("%d slices of the block rebuilt on %d for %v outstanding", n, from, v.Blk.StripeID())
			}
			if w.perStream[v.Stream]++; w.perStream[v.Stream] > rebuildWindow {
				t.Errorf("stream %d: %d requests outstanding", v.Stream, w.perStream[v.Stream])
			}
			resp := h(p, from, m)
			w.perStream[v.Stream]--
			if w.inFlight[key][v.Off]--; w.inFlight[key][v.Off] == 0 {
				delete(w.inFlight[key], v.Off)
			}
			if rr, ok := resp.(*wire.ReadResp); ok && rr.Err == nil {
				w.sent[v.Stream] += int64(len(rr.Data))
			}
			return resp
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// check holds a finished recovery of blocks rebuilt blocks to the stream
// contract: one rebuild request per block, and, when a window settled the
// stripes (settled), one re-encode per stripe whose rebuilt block is the
// first parity of an engine that buffers the other parities' deltas there
// (collects), and none otherwise; K streams per request, each loading its
// source's buffer once and sending exactly one block, none ended early,
// and no buffer left behind.
func (w *rebuildWatch) check(blocks int, settled bool) {
	t, c := w.t, w.c
	if w.rebuilds != blocks || len(w.rebuilt) != blocks {
		t.Errorf("%d rebuild requests for %d stripes, want one for each of %d blocks", w.rebuilds, len(w.rebuilt), blocks)
	}
	want := make(map[wire.StripeID]bool)
	if settled && c.collects() {
		for s, idx := range w.rebuilt {
			if idx == c.Cfg.K {
				want[s] = true
			}
		}
	}
	reencodes := 0
	for s, n := range w.reencodes {
		reencodes += n
		if !want[s] || n != 1 {
			t.Errorf("%v: %d re-encode requests, want one if its rebuilt block is a collecting first parity (%v)", s, n, want[s])
		}
	}
	if len(w.reencodes) != len(want) {
		t.Errorf("%d stripes re-encoded, want %d", len(w.reencodes), len(want))
	}
	if want := c.Cfg.K * (w.rebuilds + reencodes); len(w.loads) != want {
		t.Errorf("%d rebuild streams for %d rebuilds and %d re-encodes, want %d", len(w.loads), w.rebuilds, reencodes, want)
	}
	for s, n := range w.loads {
		if n != 1 {
			t.Errorf("stream %d: the source loaded its shard %d times", s, n)
		}
		if w.sent[s] != c.Cfg.BlockSize {
			t.Errorf("stream %d sent %d bytes, want one %d-byte block", s, w.sent[s], c.Cfg.BlockSize)
		}
	}
	if w.releases != 0 {
		t.Errorf("%d streams ended early in a successful recovery", w.releases)
	}
	w.noBuffers()
}

// noBuffers checks that no OSD holds a rebuild read-ahead buffer.
func (w *rebuildWatch) noBuffers() {
	for _, o := range w.c.OSDs {
		if n := len(o.rebuildBufs); n != 0 {
			w.t.Errorf("osd %d holds %d rebuild buffers after Recover", o.id, n)
		}
	}
}

// TestRebuildStreams runs the randomized kill-update-recover workload on
// all six engines, all three recovery modes and both streamBlockSizes.
// Every rebuild read carries at most one slice, at most rebuildWindow
// slices of one block and rebuildWindow requests of one stream are
// outstanding, each stream's source reads its shard once and
// sends it whole, no buffer survives Recover, and runKillRecover ends with
// a drain, a scrub and a byte-exact read-back. Run it under -tiesalt for
// other same-instant orders.
func TestRebuildStreams(t *testing.T) {
	for _, bs := range streamBlockSizes {
		for _, engine := range update.Names() {
			for _, mode := range []RecoverMode{RecoverDrainFirst, RecoverLogReplay, RecoverInterleaved} {
				t.Run(fmt.Sprintf("%dK/%s/%s", bs>>10, engine, mode), func(t *testing.T) {
					var w *rebuildWatch
					rep := runKillRecover(t, killRecoverRun{
						engine: engine, mode: mode, seed: 59, ops: 200, killAt: 80,
						files: 1, stripesPer: 6, victim: 3,
						mod: func(c *Config) { c.BlockSize = bs },
						arm: func(c *Cluster) { w = watchRebuild(t, c, 3) },
					})
					if t.Failed() || rep == nil {
						return
					}
					w.check(rep.Blocks, mode != RecoverDrainFirst)
					if w.maxSlices < 2 {
						t.Errorf("at most %d slice of a block outstanding: the window never opened", w.maxSlices)
					}
				})
			}
		}
	}
}

// TestRebuildStreamDeviceReads: on a quiet, drained cluster, the devices
// serve the rebuild exactly one read per source per rebuilt block, each of
// a whole block, as the whole-block fan-in did; only the network transfers
// are sliced. Each source's device read bytes equal the bytes it streamed.
func TestRebuildStreamDeviceReads(t *testing.T) {
	for _, bs := range streamBlockSizes {
		for _, engine := range update.Names() {
			t.Run(fmt.Sprintf("%dK/%s", bs>>10, engine), func(t *testing.T) {
				cfg := degradedConfig(engine)
				cfg.BlockSize = bs
				run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
					size := 6 * c.StripeWidth()
					ino, err := cl.Create(p, "f", size)
					if err != nil {
						t.Fatal(err)
					}
					content := bytes.Repeat([]byte("rebuild stream "), int(size/15)+1)[:size]
					if err := cl.WriteFile(p, ino, content); err != nil {
						t.Fatal(err)
					}
					if err := c.DrainAll(p, cl); err != nil {
						t.Fatal(err)
					}
					for _, o := range c.OSDs {
						o.dev.ResetStats()
					}
					rep, err := c.Recover(p, 3, 2, RecoverDrainFirst, cl)
					if err != nil {
						t.Fatal(err)
					}
					var ops, rd int64
					for _, o := range c.OSDs {
						st := o.dev.Stats()
						ops += st.ReadOps
						rd += st.ReadBytes
						if st.ReadBytes != rep.SourceReadBytes[o.id] {
							t.Errorf("osd %d: device read %d bytes, streamed %d", o.id, st.ReadBytes, rep.SourceReadBytes[o.id])
						}
					}
					want := int64(c.Cfg.K * rep.Blocks)
					if ops != want || rd != want*c.Cfg.BlockSize {
						t.Errorf("rebuild of %d blocks: %d device reads of %d bytes, want %d reads of %d", rep.Blocks, ops, rd, want, want*c.Cfg.BlockSize)
					}
				})
			})
		}
	}
}

// TestStripeRepairWritesAtOnce: a stripe repair sends every live parity's
// PutBlock before any is acked. A rebuild runs one when a data block is
// lost, for FO and for TSUE without a DeltaLog (its data holders fan parity
// deltas out); with M = 3 that is three parity writes. A window's settle
// runs one when TSUE's DeltaLog holder, the first parity's node, is lost
// (reencode): the second parity's holder re-encodes its own block and
// writes the others, two with M = 4. A hook counts, per repaired stripe,
// the parity PutBlocks from the repair's target and fails one that arrives
// after another's handler returned; runKillRecover then scrubs every
// stripe clean and reads every byte back.
func TestStripeRepairWritesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name, engine string
		mod          func(*Config)
		lost         func(k, idx int) bool
	}{
		{"tsue", "tsue", func(c *Config) { c.M, c.OSDs = 4, 10 }, func(k, idx int) bool { return idx == k }},
		{"tsue-nodeltalog", "tsue", func(c *Config) { c.M, c.EngineOpts.NoDeltaLog = 3, true }, func(k, idx int) bool { return idx < k }},
		{"fo", "fo", func(c *Config) { c.M = 3 }, func(k, idx int) bool { return idx < k }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type repair struct {
				target          wire.NodeID
				arrived, acked  int
				wantParityPuts  int
				lateAfterAnAck  bool
				lostIndexOfKind bool
			}
			repairs := make(map[wire.StripeID]*repair)
			var c *Cluster
			rep := runKillRecover(t, killRecoverRun{
				engine: tc.engine, mode: RecoverInterleaved, seed: 61, ops: 200, killAt: 80,
				files: 1, stripesPer: 6, victim: 3,
				mod: tc.mod,
				arm: func(cl *Cluster) {
					c = cl
					for _, o := range c.OSDs {
						o, h := o, o.handle
						if err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
							switch v := m.(type) {
							case *wire.RecoverBlock:
								if v.Reencode {
									want := 0
									osds := c.Placement(v.Blk.StripeID())
									for j := c.Cfg.K; j < c.Cfg.K+c.Cfg.M; j++ {
										if j != int(v.Blk.Index) && !c.Fabric.Down(osds[j]) {
											want++
										}
									}
									repairs[v.Blk.StripeID()] = &repair{target: o.id, wantParityPuts: want,
										lostIndexOfKind: tc.lost(c.Cfg.K, slices.Index(osds, 3))}
								}
							case *wire.PutBlock:
								r := repairs[v.Blk.StripeID()]
								if r == nil || from != r.target || int(v.Blk.Index) < c.Cfg.K {
									break
								}
								r.arrived++
								if r.acked > 0 {
									r.lateAfterAnAck = true
								}
								resp := h(p, from, m)
								r.acked++
								return resp
							}
							return h(p, from, m)
						}); err != nil {
							t.Fatal(err)
						}
					}
				},
			})
			if t.Failed() || rep == nil {
				return
			}
			if len(repairs) == 0 {
				t.Fatal("no stripe repair ran")
			}
			for s, r := range repairs {
				if !r.lostIndexOfKind {
					t.Errorf("%v: stripe repair of an unexpected block", s)
				}
				if r.arrived != r.wantParityPuts || r.wantParityPuts < 2 {
					t.Errorf("%v: %d parity PutBlocks arrived, want %d (at least 2)", s, r.arrived, r.wantParityPuts)
				}
				if r.lateAfterAnAck {
					t.Errorf("%v: a parity PutBlock arrived after another was acked", s)
				}
			}
		})
	}
}

// TestRebuildStreamRejectsCorruption: a rebuild never stores bytes it
// could not verify. A flipped byte in one slice on the wire (a one-shot
// corruptor on a rebuild ReadResp) and a rotted granule of a source's
// stored shard are each detected once — CorruptionsDetected rises by the
// injections — and Recover fails with wire.ErrChecksum. Every lost block
// stored anywhere afterwards equals the dead node's copy, the block whose
// stream failed is stored nowhere, and every source that could be told
// dropped its buffer. It runs drain-first (plain rebuilds) and interleaved
// (TSUE's lost first parities take the stripe repair) on a drained TSUE
// cluster.
func TestRebuildStreamRejectsCorruption(t *testing.T) {
	const victim = wire.NodeID(3)
	for _, mode := range []RecoverMode{RecoverDrainFirst, RecoverInterleaved} {
		for _, fault := range []string{"slice", "rot"} {
			t.Run(fmt.Sprintf("%s/%s", mode, fault), func(t *testing.T) {
				cfg := degradedConfig("tsue")
				cfg.BlockSize = streamBlockSizes[1]
				run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
					size := 6 * c.StripeWidth()
					ino, err := cl.Create(p, "f", size)
					if err != nil {
						t.Fatal(err)
					}
					content := bytes.Repeat([]byte("verify every slice "), int(size/19)+1)[:size]
					if err := cl.WriteFile(p, ino, content); err != nil {
						t.Fatal(err)
					}
					if err := c.DrainAll(p, cl); err != nil {
						t.Fatal(err)
					}
					lost := c.lostBlocks(victim)
					dead := c.OSDByID(victim)
					var bad wire.StripeID // the stripe whose rebuild must fail
					injected := int64(1)
					switch fault {
					case "slice":
						var armed wire.Msg
						for _, o := range c.OSDs {
							h := o.handle
							if err := c.Fabric.SetHandler(o.id, func(hp *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
								resp := h(hp, from, m)
								if v, ok := m.(*wire.RebuildRead); ok && v.Size > 0 && armed == nil {
									armed, bad = resp, v.Blk.StripeID()
								}
								return resp
							}); err != nil {
								t.Fatal(err)
							}
						}
						c.Fabric.SetCorruptor(func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool) {
							if armed == nil || m != armed {
								return nil, false
							}
							armed = &wire.Ack{} // one shot
							cp := append([]byte(nil), wire.Payload(m)...)
							cp[len(cp)/2] ^= 0xff
							return wire.WithPayload(m, cp), true
						})
					case "rot":
						blk := lost[0]
						bad = blk.StripeID()
						osds := c.Placement(bad)
						src := c.OSDByID(victim).liveSources(blk, osds)[0]
						sblk := wire.BlockID{Ino: bad.Ino, Stripe: bad.Stripe, Index: uint16(src)}
						if err := c.OSDByID(osds[src]).Store().CorruptStored(sblk, 5000); err != nil {
							t.Fatal(err)
						}
					}
					before := c.CorruptionsDetected()
					_, err = c.Recover(p, victim, 2, mode, cl)
					if !errors.Is(err, wire.ErrChecksum) {
						t.Fatalf("Recover: %v, want a checksum error", err)
					}
					if fault == "slice" && c.Fabric.CorruptionsInjected() != injected {
						t.Fatalf("%d corruptions injected, want %d", c.Fabric.CorruptionsInjected(), injected)
					}
					if det := c.CorruptionsDetected() - before; det != injected {
						t.Errorf("%d corruptions detected, want %d", det, injected)
					}
					for _, blk := range lost {
						want, _ := dead.Store().Peek(blk)
						for _, o := range c.OSDs {
							if o.id == victim || !o.Store().Has(blk) {
								continue
							}
							if blk.StripeID() == bad {
								t.Errorf("%v, whose rebuild failed, is stored on osd %d", blk, o.id)
							}
							if got, _ := o.Store().Peek(blk); !bytes.Equal(got, want) {
								t.Errorf("%v stored on osd %d differs from the dead node's copy", blk, o.id)
							}
						}
					}
					for _, o := range c.OSDs {
						if n := len(o.rebuildBufs); n != 0 && o.id != victim {
							t.Errorf("osd %d holds %d rebuild buffers after the failed Recover", o.id, n)
						}
					}
				})
			})
		}
	}
}
