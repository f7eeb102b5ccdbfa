// Package tsue's top-level benchmarks regenerate every table and figure of
// the paper's evaluation at a reduced scale (one bench per artifact). Run
// the full-scale versions with cmd/tsuebench.
package tsue

import (
	"io"
	"math/rand"
	"testing"

	"tsue/internal/cluster"
	"tsue/internal/gf256"
	"tsue/internal/harness"
	"tsue/internal/rs"
	"tsue/internal/sim"
)

// benchScale keeps the whole suite tractable under `go test -bench=.`.
func benchScale() harness.Scale {
	return harness.Scale{
		Ops:       800,
		FileMB:    12,
		Clients:   []int{16},
		RSConfigs: [][2]int{{6, 4}},
	}
}

func runExp(b *testing.B, fn func(io.Writer, harness.Scale) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: SSD update throughput across engines.
func BenchmarkFig5(b *testing.B) { runExp(b, harness.Fig5) }

// BenchmarkFig6a regenerates Fig. 6a: recycle-overhead IOPS timeline.
func BenchmarkFig6a(b *testing.B) { runExp(b, harness.Fig6a) }

// BenchmarkFig6b regenerates Fig. 6b: memory usage vs log-unit quota.
func BenchmarkFig6b(b *testing.B) { runExp(b, harness.Fig6b) }

// BenchmarkFig7 regenerates Fig. 7: the O1..O5 contribution breakdown.
func BenchmarkFig7(b *testing.B) { runExp(b, harness.Fig7) }

// BenchmarkTable1 regenerates Table 1: storage workload, network traffic,
// and SSD wear per engine.
func BenchmarkTable1(b *testing.B) { runExp(b, harness.Table1) }

// BenchmarkTable2 regenerates Table 2: per-layer log residency times.
func BenchmarkTable2(b *testing.B) { runExp(b, harness.Table2) }

// BenchmarkFig8a regenerates Fig. 8a: HDD update throughput per MSR volume.
func BenchmarkFig8a(b *testing.B) { runExp(b, harness.Fig8a) }

// BenchmarkFig8b regenerates Fig. 8b: HDD recovery bandwidth per MSR volume.
func BenchmarkFig8b(b *testing.B) { runExp(b, harness.Fig8b) }

// BenchmarkSweep regenerates the batched-recycle sweep over recycler batch
// sizes.
func BenchmarkSweep(b *testing.B) { runExp(b, harness.Sweep) }

// Kernel micro-benchmarks: the word-wise gf256 slice kernels against their
// scalar references on 64 KiB buffers (the hot-loop sizes of encode and
// parity-delta folding). The word/ref ratio is the acceptance number for
// the coding hot path.

const kernelBenchSize = 64 << 10

func kernelBufs() (dst, src []byte) {
	dst = make([]byte, kernelBenchSize)
	src = make([]byte, kernelBenchSize)
	rand.New(rand.NewSource(42)).Read(src)
	return dst, src
}

// BenchmarkMulXorSlice compares the word-wise fused multiply-XOR kernel
// (dst ^= c*src, the parity-delta inner loop) against the scalar reference.
func BenchmarkMulXorSlice(b *testing.B) {
	dst, src := kernelBufs()
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulXorSlice(0x8e, dst, src)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulXorSliceRef(0x8e, dst, src)
		}
	})
}

// BenchmarkMulSlice compares the word-wise multiply kernel against the
// scalar reference.
func BenchmarkMulSlice(b *testing.B) {
	dst, src := kernelBufs()
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulSlice(0x8e, dst, src)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.MulSliceRef(0x8e, dst, src)
		}
	})
}

// BenchmarkXorSlice compares the word-wise XOR kernel against the scalar
// reference.
func BenchmarkXorSlice(b *testing.B) {
	dst, src := kernelBufs()
	b.Run("word", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.XorSlice(dst, src)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(kernelBenchSize)
		for i := 0; i < b.N; i++ {
			gf256.XorSliceRef(dst, src)
		}
	})
}

// BenchmarkEncode measures full-stripe RS(6,4) encoding of 1 MiB shards.
func BenchmarkEncode(b *testing.B) {
	code := rs.MustNew(6, 4, rs.Vandermonde)
	const shard = 1 << 20
	rng := rand.New(rand.NewSource(43))
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, shard)
		rng.Read(data[i])
	}
	parity := make([][]byte, 4)
	for i := range parity {
		parity[i] = make([]byte, shard)
	}
	b.SetBytes(6 * shard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

// Update-path benchmarks: one 16 KiB client update per iteration against a
// preloaded RS(6,4) cluster, the engine's background work (reserve recycles,
// TSUE's three-layer pipeline) running interleaved as it does in a real run.
// B/op is the number to watch — payload-sized buffers allocated per update,
// the quantity internal/cluster's TestAllocationBudget holds a ceiling on —
// and MB/s is host throughput of the simulator, not of the modelled cluster.
// Use a fixed count long enough to reach steady state, e.g.
// `go test -run '^$' -bench 'PLRUpdate|TSUEUpdate' -benchtime 2000x`.

const updateBenchSize = 16 << 10

func benchUpdate(b *testing.B, engine string) {
	cfg := cluster.DefaultConfig()
	cfg.OSDs = 12
	cfg.PGs = 24
	cfg.Engine = engine
	cfg.EngineOpts.UnitSize = 1 << 20
	c := cluster.MustNew(cfg)
	defer c.Env.Close()
	cl := c.NewClient()
	rng := rand.New(rand.NewSource(44))
	fileSize := 2 * c.StripeWidth()
	content := make([]byte, fileSize)
	rng.Read(content)
	payload := content[:updateBenchSize]
	b.ReportAllocs()
	b.SetBytes(updateBenchSize)
	var err error
	c.Env.Go("bench", func(p *sim.Proc) {
		var ino uint64
		if ino, err = cl.Create(p, "f", fileSize); err != nil {
			return
		}
		if err = cl.WriteFile(p, ino, content); err != nil {
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			err = cl.Update(p, ino, rng.Int63n(fileSize-updateBenchSize)&^4095, payload)
		}
		b.StopTimer()
	})
	// Unbounded: b.N updates may need more events than sim.SmallBound.
	c.Env.Run(0)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPLRUpdate: in-place RMW plus M reserved-space parity-log appends.
func BenchmarkPLRUpdate(b *testing.B) { benchUpdate(b, "plr") }

// BenchmarkTSUEUpdate: DataLog append and replica, then the asynchronous
// DataLog → DeltaLog → ParityLog recycle.
func BenchmarkTSUEUpdate(b *testing.B) { benchUpdate(b, "tsue") }
