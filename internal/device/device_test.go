package device

import (
	"testing"
	"time"

	"tsue/internal/sim"
)

func runOne(t *testing.T, fn func(p *sim.Proc, d *Disk)) (Stats, time.Duration) {
	t.Helper()
	e := sim.NewEnv()
	d := New(e, "d0", SSD, SSDParams())
	e.Go("t", func(p *sim.Proc) { fn(p, d) })
	end := e.RunTest(t)
	e.Close()
	return d.Stats(), end
}

func TestSeqVsRandClassification(t *testing.T) {
	st, _ := runOne(t, func(p *sim.Proc, d *Disk) {
		z := d.NewZone("log", false)
		d.Write(p, z, 0, 4096, false)     // first access: random (no history)
		d.Write(p, z, 4096, 4096, false)  // sequential
		d.Write(p, z, 8192, 4096, false)  // sequential
		d.Write(p, z, 1<<20, 4096, false) // jump: random
	})
	if st.SeqWriteOps != 2 || st.RandWriteOps != 2 {
		t.Fatalf("seq=%d rand=%d, want 2/2", st.SeqWriteOps, st.RandWriteOps)
	}
}

func TestZonesIsolateSequentiality(t *testing.T) {
	st, _ := runOne(t, func(p *sim.Proc, d *Disk) {
		za := d.NewZone("a", false)
		zb := d.NewZone("b", false)
		// Interleaved appends to two zones must all be sequential after the
		// first access in each.
		for i := 0; i < 4; i++ {
			d.Write(p, za, int64(i)*4096, 4096, false)
			d.Write(p, zb, int64(i)*4096, 4096, false)
		}
	})
	if st.RandWriteOps != 2 { // only the two first-touches
		t.Fatalf("rand=%d, want 2", st.RandWriteOps)
	}
	if st.SeqWriteOps != 6 {
		t.Fatalf("seq=%d, want 6", st.SeqWriteOps)
	}
}

func TestRandomCostsMoreThanSeq(t *testing.T) {
	_, seqEnd := runOne(t, func(p *sim.Proc, d *Disk) {
		z := d.NewZone("z", false)
		for i := 0; i < 100; i++ {
			d.Write(p, z, int64(i)*4096, 4096, false)
		}
	})
	_, randEnd := runOne(t, func(p *sim.Proc, d *Disk) {
		z := d.NewZone("z", false)
		for i := 0; i < 100; i++ {
			d.Write(p, z, int64((i*7919)%100000)*4096, 4096, false)
		}
	})
	if randEnd < seqEnd*3 {
		t.Fatalf("random (%v) should be >=3x sequential (%v)", randEnd, seqEnd)
	}
}

func TestOverwriteAccounting(t *testing.T) {
	st, _ := runOne(t, func(p *sim.Proc, d *Disk) {
		z := d.NewZone("blk", false)
		d.Write(p, z, 0, 8192, false)
		d.Write(p, z, 0, 4096, true)
		d.Write(p, z, 4096, 4096, true)
	})
	if st.OverwriteOps != 2 || st.OverwriteBytes != 8192 {
		t.Fatalf("overwrites=%d/%d", st.OverwriteOps, st.OverwriteBytes)
	}
}

func TestParallelismLimitsThroughput(t *testing.T) {
	// 16 concurrent 4K random reads on parallelism-8 SSD take 2 service times.
	e := sim.NewEnv()
	par := SSDParams()
	par.RandReadLat = 100 * time.Microsecond
	par.ReadBW = 1e18 // negligible transfer term
	d := New(e, "d", SSD, par)
	z := d.NewZone("z", false)
	for i := 0; i < 16; i++ {
		i := i
		e.Go("r", func(p *sim.Proc) {
			d.Read(p, z, int64(i*1<<20), 4096)
		})
	}
	end := e.RunTest(t)
	if end != 200*time.Microsecond {
		t.Fatalf("end=%v want 200us", end)
	}
}

func TestHDDSingleQueue(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, "h", HDD, HDDParams())
	z := d.NewZone("z", false)
	for i := 0; i < 4; i++ {
		i := i
		e.Go("r", func(p *sim.Proc) {
			d.Read(p, z, int64(i)*1<<30, 4096)
		})
	}
	end := e.RunTest(t)
	// 4 random reads serialized: >= 4 * RandReadLat.
	if end < 4*HDDParams().RandReadLat {
		t.Fatalf("HDD did not serialize: %v", end)
	}
}

// TestLogReservesBeforeWrite: appends that overlap in time get distinct,
// contiguous positions in arrival order, so only the first touch of the
// zone is charged as a random write.
func TestLogReservesBeforeWrite(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, "d", SSD, SSDParams())
	l := d.NewLog("log", 1<<20)
	sizes := []int64{64 << 10, 16, 4096, 512}
	pos := make([]int64, len(sizes))
	for i, n := range sizes {
		e.Go("append", func(p *sim.Proc) { pos[i] = l.Append(p, n) })
	}
	e.RunTest(t)
	e.Close()
	var want int64
	for i, n := range sizes {
		if pos[i] != want {
			t.Errorf("append %d at %d, want %d", i, pos[i], want)
		}
		want += n
	}
	if l.Len() != want {
		t.Errorf("Len %d, want %d", l.Len(), want)
	}
	st := d.Stats()
	if st.RandWriteOps != 1 || st.SeqWriteOps != int64(len(sizes)-1) {
		t.Errorf("rand=%d seq=%d, want 1/%d", st.RandWriteOps, st.SeqWriteOps, len(sizes)-1)
	}
	l.Reset()
	if got := l.Reserve(8); got != 0 {
		t.Errorf("first reservation after Reset at %d, want 0", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ReadOps: 1, WriteBytes: 10, Erases: 2}
	b := Stats{ReadOps: 2, WriteBytes: 5, Erases: 1}
	a.Add(b)
	if a.ReadOps != 3 || a.WriteBytes != 15 || a.Erases != 3 {
		t.Fatalf("add wrong: %+v", a)
	}
}

func newTestFTL(capacity int64) *ftl {
	return newFTL(4096, 16, capacity, 0.1)
}

func TestFTLSequentialFillNoGC(t *testing.T) {
	f := newTestFTL(1 << 20) // 1 MiB logical
	var total ftlResult
	for off := int64(0); off < 512<<10; off += 4096 {
		r := f.hostWrite(0, off, 4096)
		total.erases += r.erases
	}
	if total.erases != 0 {
		t.Fatalf("sequential fill under capacity caused %d erases", total.erases)
	}
	if f.liveBytes() != 512<<10 {
		t.Fatalf("liveBytes=%d", f.liveBytes())
	}
}

func TestFTLChurnTriggersGC(t *testing.T) {
	f := newTestFTL(256 << 10)
	var erases int64
	// Overwrite the same 64 KiB region many times: must trigger GC,
	// and live data must survive (mapping count constant).
	for round := 0; round < 200; round++ {
		for off := int64(0); off < 64<<10; off += 4096 {
			r := f.hostWrite(0, off, 4096)
			erases += r.erases
		}
	}
	if erases == 0 {
		t.Fatal("churn produced no erases")
	}
	if f.liveBytes() != 64<<10 {
		t.Fatalf("live data lost by GC: liveBytes=%d", f.liveBytes())
	}
}

func TestFTLSubPageWriteAmplifies(t *testing.T) {
	f := newFTL(16<<10, 16, 10<<20, 0.1)
	r := f.hostWrite(0, 0, 4096) // quarter page
	if r.nandWrite != 16<<10 {
		t.Fatalf("sub-page program wrote %d NAND bytes, want full page", r.nandWrite)
	}
}

func TestFTLWriteAmpGrowsWithRandomOverwrite(t *testing.T) {
	// Sequential large writes vs small random overwrites over the same
	// logical span: random must have strictly higher write amp.
	seq := newFTL(16<<10, 64, 8<<20, 0.1)
	var seqHost, seqNand int64
	for round := 0; round < 10; round++ {
		for off := int64(0); off < 6<<20; off += 256 << 10 {
			r := seq.hostWrite(0, off, 256<<10)
			seqHost += 256 << 10
			seqNand += r.nandWrite
		}
	}
	rnd := newFTL(16<<10, 64, 8<<20, 0.1)
	var rndHost, rndNand int64
	// Fill first.
	for off := int64(0); off < 6<<20; off += 256 << 10 {
		r := rnd.hostWrite(0, off, 256<<10)
		rndHost += 256 << 10
		rndNand += r.nandWrite
	}
	// Then scattered 4K overwrites.
	pos := int64(0)
	for i := 0; i < 2000; i++ {
		pos = (pos + 999*4096) % (6 << 20)
		r := rnd.hostWrite(1, pos, 4096)
		rndHost += 4096
		rndNand += r.nandWrite
	}
	seqWA := float64(seqNand) / float64(seqHost)
	rndWA := float64(rndNand) / float64(rndHost)
	if rndWA <= seqWA {
		t.Fatalf("random WA %.2f not greater than sequential WA %.2f", rndWA, seqWA)
	}
}

func TestDiskFTLIntegration(t *testing.T) {
	e := sim.NewEnv()
	par := SSDParams()
	par.Capacity = 1 << 20
	par.PageSize = 4096
	par.BlockPages = 16
	d := New(e, "d", SSD, par)
	z := d.NewZone("blk", true)
	e.Go("w", func(p *sim.Proc) {
		for round := 0; round < 50; round++ {
			for off := int64(0); off < 512<<10; off += 64 << 10 {
				d.Write(p, z, off, 64<<10, round > 0)
			}
		}
	})
	e.RunTest(t)
	st := d.Stats()
	if st.HostWriteBytes == 0 || st.NandWriteBytes < st.HostWriteBytes {
		t.Fatalf("FTL accounting missing: %+v", st)
	}
	if st.Erases == 0 {
		t.Fatal("expected erases from churn")
	}
}

func TestNonFlashZoneSkipsFTL(t *testing.T) {
	e := sim.NewEnv()
	par := SSDParams()
	par.Capacity = 1 << 20
	d := New(e, "d", SSD, par)
	z := d.NewZone("mem", false)
	e.Go("w", func(p *sim.Proc) {
		d.Write(p, z, 0, 4096, false)
	})
	e.RunTest(t)
	if d.Stats().HostWriteBytes != 0 {
		t.Fatal("non-flash zone hit the FTL")
	}
}

func TestUtilization(t *testing.T) {
	e := sim.NewEnv()
	par := SSDParams()
	par.Parallelism = 1
	par.RandWriteLat = time.Millisecond
	par.WriteBW = 1e18
	d := New(e, "d", SSD, par)
	z := d.NewZone("z", false)
	e.Go("w", func(p *sim.Proc) {
		d.Write(p, z, 1<<30, 1, false)
		p.Sleep(time.Millisecond) // idle
	})
	end := e.RunTest(t)
	u := d.Utilization(end)
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization=%f want ~0.5", u)
	}
}
