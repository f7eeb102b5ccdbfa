package main

import (
	"math/rand"
	"runtime"
	"time"

	"tsue/internal/blockstore"
	"tsue/internal/device"
	"tsue/internal/gf256"
	"tsue/internal/logpool"
	"tsue/internal/netsim"
	"tsue/internal/placement"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// Host-clock layer drivers: tight loops around one layer's public functions,
// with the call shapes the workloads use (a 4 KiB range in a 1 MiB block,
// 64 KiB, 1 MiB). Each loop runs for at least driverTime. README.md lists the
// functions pinned here; the benchmark is frozen, so a later change to one of
// those signatures must keep the old call working.

const (
	kib = 1 << 10
	mib = 1 << 20
)

// loopCost is what one call of a driver loop cost on the host.
type loopCost struct {
	ns, bytes, events float64
}

func (c loopCost) mbps(bytesPerCall int) float64 { return float64(bytesPerCall) / c.ns * 1e3 }

// runLoop calls fn(i) for i = 0, 1, ... until min has passed, in batches of
// about 5 ms so the clock is read rarely.
func runLoop(min time.Duration, fn func(i int)) (calls int, cost loopCost) {
	fn(0) // lazy tables, first-touch pages
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n, batch := 1, 1
	var el time.Duration
	for {
		for end := n + batch; n < end; n++ {
			fn(n)
		}
		el = time.Since(t0)
		if el >= min {
			break
		}
		per := el / time.Duration(n)
		if per <= 0 {
			per = 1
		}
		if batch = int(5 * time.Millisecond / per); batch < 1 {
			batch = 1
		}
	}
	runtime.ReadMemStats(&m1)
	calls = n - 1
	c := float64(calls)
	return calls, loopCost{
		ns:    float64(el.Nanoseconds()) / c,
		bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / c,
	}
}

// simLoop runs a driver loop inside a sim process (the layer's functions
// block on the virtual clock) while this goroutine steps the kernel and
// counts its events. build prepares the layer in the fresh environment and
// returns the call to time.
func simLoop(min time.Duration, build func(env *sim.Env) func(p *sim.Proc, i int)) loopCost {
	env := sim.NewEnv()
	fn := build(env)
	var cost loopCost
	var calls int
	var ev0, events int64
	env.Go("driver", func(p *sim.Proc) {
		ev0 = events
		calls, cost = runLoop(min, func(i int) { fn(p, i) })
		cost.events = float64(events-ev0) / float64(calls)
	})
	for env.HasPendingEvents() {
		env.ProcessNextEvent()
		events++
	}
	env.Close()
	return cost
}

// runDrivers measures every layer driver and returns its metrics by name.
func runDrivers(min time.Duration, seed int64) map[string]float64 {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	host := func(fn func(i int)) loopCost {
		_, c := runLoop(min, fn)
		return c
	}
	off4k := func(i int) int64 { return int64(uint64(i)*2654435761%256) * 4 * kib } // scattered 4 KiB slots of a 1 MiB block

	// gf256: the GF(2^8) kernels under every encode, delta and rebuild.
	src, dst := fill(64*kib), fill(64*kib)
	out["gf256.mulxor_64k_mbps"] = host(func(int) { gf256.MulXorSlice(0x57, dst, src) }).mbps(64 * kib)
	out["gf256.mul_64k_mbps"] = host(func(int) { gf256.MulSlice(0x57, dst, src) }).mbps(64 * kib)
	out["gf256.xor_64k_mbps"] = host(func(int) { gf256.XorSlice(dst, src) }).mbps(64 * kib)

	// rs: whole-stripe encode and rebuild, and the small-delta maths of the
	// update engines.
	code := rs.MustNew(shapeK, shapeM, rs.Vandermonde)
	shards := make([][]byte, shapeK+shapeM)
	for i := range shards {
		shards[i] = fill(mib)
	}
	out["rs.encode_6_4_1m_mbps"] = host(func(int) {
		if err := code.Encode(shards[:shapeK], shards[shapeK:]); err != nil {
			panic(err)
		}
	}).mbps(shapeK * mib)
	lost := make([][]byte, len(shards))
	out["rs.reconstruct_6_4_1m_mbps"] = host(func(i int) {
		copy(lost, shards)
		lost[i%len(shards)] = nil // one lost shard, as after one OSD death
		if err := code.Reconstruct(lost); err != nil {
			panic(err)
		}
	}).mbps(mib)
	a4, b4, d4 := fill(4*kib), fill(4*kib), make([]byte, 4*kib)
	out["rs.data_delta_4k_ns"] = host(func(int) { rs.DataDelta(d4, a4, b4) }).ns
	out["rs.parity_delta_4k_ns"] = host(func(i int) { code.ParityDelta(i%shapeM, i%shapeK, d4, a4) }).ns
	deltas := [][]byte{fill(4 * kib), fill(4 * kib), fill(4 * kib), fill(4 * kib)}
	out["rs.merge_data_deltas_4x4k_ns"] = host(func(i int) {
		code.MergeDataDeltas(i%shapeM, d4, []int{0, 1, 2, 3}, deltas)
	}).ns
	extents := make([]rs.DeltaExtent, 64)
	for i := range extents {
		extents[i] = rs.DeltaExtent{Block: i % shapeK, Off: off4k(i / 2), Data: fill(4 * kib)}
	}
	fold := host(func(int) { code.FoldDeltas(extents) })
	out["rs.fold_deltas_64x4k_ns"], out["rs.fold_deltas_64x4k_bytes"] = fold.ns, fold.bytes

	// wire: the checksum on every payload and every stored block.
	block := fill(mib)
	var sum uint32 // keeps the checksums live
	out["wire.checksum_4k_ns"] = host(func(int) { sum += wire.Checksum(a4) }).ns
	out["wire.checksum_1m_ns"] = host(func(int) { sum += wire.Checksum(block) }).ns
	_ = sum

	// sim: the kernel's own primitives.
	out["sim.proc_switch_ns"] = simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		ping, pong := sim.NewQueue[int](env), sim.NewQueue[int](env)
		env.Go("echo", func(p *sim.Proc) {
			for {
				v, ok := ping.Get(p)
				if !ok {
					return
				}
				pong.Put(v)
			}
		})
		return func(p *sim.Proc, i int) { ping.Put(i); pong.Get(p) }
	}).ns / 2 // one round trip is two switches
	out["sim.sleep_ns"] = simLoop(min, func(*sim.Env) func(*sim.Proc, int) {
		return func(p *sim.Proc, _ int) { p.Sleep(time.Microsecond) }
	}).ns
	out["sim.spawn_ns"] = simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		wg := sim.NewWaitGroup(env)
		return func(p *sim.Proc, _ int) {
			wg.Add(1)
			env.Go("child", func(*sim.Proc) { wg.Done() })
			wg.Wait(p)
		}
	}).ns
	out["sim.resource_use_ns"] = simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		r := env.NewResource("r", 1)
		return func(p *sim.Proc, _ int) { r.Use(p, time.Microsecond) }
	}).ns
	env := sim.NewEnv()
	out["sim.event_ns"] = host(func(int) {
		env.At(env.Now()+time.Microsecond, func() {})
		env.ProcessNextEvent()
	}).ns

	// netsim: one RPC carrying a 4 KiB update to an echo handler.
	call := simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		f := netsim.New(env, netsim.Ethernet25G())
		f.AddNode(1, nil)
		f.AddNode(2, func(*sim.Proc, wire.NodeID, wire.Msg) wire.Msg { return wire.OK })
		req := &wire.Update{Blk: wire.BlockID{Ino: 1}, Data: a4, Sum: wire.Checksum(a4)}
		return func(p *sim.Proc, _ int) {
			if _, err := f.Call(p, 1, 2, req); err != nil {
				panic(err)
			}
		}
	})
	out["netsim.call_4k_ns"], out["netsim.call_4k_bytes"], out["netsim.call_4k_events"] = call.ns, call.bytes, call.events

	// device: the SSD model with the FTL geometry of the workloads.
	newDisk := func(env *sim.Env) *device.Disk {
		p := device.SSDParams()
		p.Capacity, p.PageSize, p.BlockPages = 532*mib, 16*kib, 64
		return device.New(env, "osd", device.SSD, p)
	}
	out["device.write_4k_rand_ns"] = simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		d := newDisk(env)
		z := d.NewZone("blocks", true)
		return func(p *sim.Proc, i int) { d.Write(p, z, int64(i%10)*mib+off4k(i), 4*kib, true) }
	}).ns
	out["device.write_64k_seq_ns"] = simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		d := newDisk(env)
		z := d.NewZone("log", true)
		return func(p *sim.Proc, i int) { d.Write(p, z, int64(i%1024)*64*kib, 64*kib, false) }
	}).ns
	out["device.read_4k_ns"] = simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
		d := newDisk(env)
		z := d.NewZone("blocks", true)
		return func(p *sim.Proc, i int) { d.Read(p, z, int64(i%10)*mib+off4k(i), 4*kib) }
	}).ns

	// blockstore: range ops inside a stored 1 MiB block, and whole-block ops.
	store := func(fn func(s *blockstore.Store, p *sim.Proc, blk wire.BlockID, i int)) loopCost {
		return simLoop(min, func(env *sim.Env) func(*sim.Proc, int) {
			s := blockstore.New(newDisk(env), mib)
			loaded := false
			return func(p *sim.Proc, i int) {
				if !loaded { // Put needs a process, so the first call loads the blocks
					for b := 0; b < 10; b++ {
						if err := s.Put(p, wire.BlockID{Ino: 1, Index: uint16(b)}, block); err != nil {
							panic(err)
						}
					}
					loaded = true
				}
				fn(s, p, wire.BlockID{Ino: 1, Index: uint16(i % 10)}, i)
			}
		})
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	c64 := fill(64 * kib)
	w4 := store(func(s *blockstore.Store, p *sim.Proc, blk wire.BlockID, i int) {
		must(s.WriteRange(p, blk, off4k(i), a4))
	})
	out["blockstore.write_range_4k_in_1m_ns"], out["blockstore.write_range_4k_in_1m_bytes"] = w4.ns, w4.bytes
	r4 := store(func(s *blockstore.Store, p *sim.Proc, blk wire.BlockID, i int) {
		_, err := s.ReadRange(p, blk, off4k(i), 4*kib)
		must(err)
	})
	out["blockstore.read_range_4k_in_1m_ns"], out["blockstore.read_range_4k_in_1m_bytes"] = r4.ns, r4.bytes
	out["blockstore.write_range_64k_in_1m_ns"] = store(func(s *blockstore.Store, p *sim.Proc, blk wire.BlockID, i int) {
		must(s.WriteRange(p, blk, int64(i%16)*64*kib, c64))
	}).ns
	out["blockstore.read_range_1m_ns"] = store(func(s *blockstore.Store, p *sim.Proc, blk wire.BlockID, _ int) {
		_, err := s.ReadRange(p, blk, 0, mib)
		must(err)
	}).ns
	out["blockstore.put_1m_ns"] = store(func(s *blockstore.Store, p *sim.Proc, blk wire.BlockID, _ int) {
		must(s.Put(p, blk, block))
	}).ns
	out["blockstore.verify_stored_1m_ns"] = store(func(s *blockstore.Store, _ *sim.Proc, blk wire.BlockID, _ int) {
		if !s.VerifyStored(blk) {
			panic("blockstore: stored block fails its checksum")
		}
	}).ns

	// logpool: the per-block extent index. A log is refilled every 256
	// inserts — one 1 MiB unit's worth of 4 KiB records.
	insert := func(off func(i int) int64, mode logpool.MergeMode) loopCost {
		var bl *logpool.BlockLog
		return host(func(i int) {
			if i%256 == 0 {
				bl = &logpool.BlockLog{}
			}
			bl.Insert(off(i), a4, mode)
		})
	}
	ir := insert(off4k, logpool.Overwrite)
	out["logpool.insert_rand_4k_ns"], out["logpool.insert_rand_4k_bytes"] = ir.ns, ir.bytes
	is := insert(func(i int) int64 { return int64(i%256) * 4 * kib }, logpool.Overwrite)
	out["logpool.insert_seq_4k_ns"], out["logpool.insert_seq_4k_bytes"] = is.ns, is.bytes
	io := insert(func(int) int64 { return 64 * kib }, logpool.XOR)
	out["logpool.insert_overlap_4k_ns"], out["logpool.insert_overlap_4k_bytes"] = io.ns, io.bytes
	pool := logpool.NewPool(0, logpool.Overwrite, mib, 4)
	out["logpool.pool_append_4k_ns"] = host(func(i int) {
		sealed, ok := pool.Append(wire.BlockID{Ino: 1, Index: uint16(i % 6)}, off4k(i/6), a4, 0)
		if !ok {
			panic("logpool: pool stalled")
		}
		if sealed != nil { // recycle at once, so the pool never stalls
			pool.MarkRecycling(sealed)
			pool.MarkRecycled(sealed, 0)
		}
	}).ns
	feeder := logpool.NewPool(1, logpool.XOR, 256*kib, 8)
	var units []*logpool.Unit
	for i := 0; len(units) < 4; i++ {
		if sealed, _ := feeder.Append(wire.BlockID{Ino: 1, Index: uint16(i % 8)}, off4k(i*7), a4, 0); sealed != nil {
			units = append(units, sealed)
		}
	}
	out["logpool.merge_units_ns"] = host(func(int) { logpool.MergeUnits(units, logpool.XOR, false) }).ns
	overlay := &logpool.BlockLog{}
	for i := 0; i < 128; i += 2 {
		overlay.Insert(off4k(i), a4, logpool.Overwrite)
	}
	out["logpool.overlay_4k_ns"] = host(func(i int) { overlay.Overlay(off4k(i), d4) }).ns

	// Controls: neither should move with any optimisation of the data path.
	ids := make([]wire.NodeID, shapeOSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	pm, err := placement.New(placement.Config{PGs: shapePGs, Width: shapeK + shapeM, OSDs: ids, Seed: 0x75e5})
	must(err)
	out["placement.lookup_ns"] = host(func(i int) {
		if _, err := pm.Place(wire.StripeID{Ino: 1, Stripe: uint32(i)}, nil); err != nil {
			panic(err)
		}
	}).ns
	gen := trace.MustGenerator(trace.AliCloud(96*mib), seed)
	out["trace.gen_next_ns"] = host(func(int) { gen.Next() }).ns

	return out
}
