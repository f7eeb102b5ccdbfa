package trace

import "testing"

const ws = 256 << 20

func TestAliCloudMatchesPaperStats(t *testing.T) {
	g := MustGenerator(AliCloud(ws), 1)
	st := ComputeStats(g.Gen(50000), ws)
	// Paper §2.1: 75% updates; 46% of updates 4K; 60% <=16K.
	if st.WriteRatio < 0.73 || st.WriteRatio > 0.77 {
		t.Fatalf("ali write ratio %.3f, want ~0.75", st.WriteRatio)
	}
	if st.Le4K < 0.42 || st.Le4K > 0.50 {
		t.Fatalf("ali <=4K %.3f, want ~0.46", st.Le4K)
	}
	if st.Le16K < 0.56 || st.Le16K > 0.64 {
		t.Fatalf("ali <=16K %.3f, want ~0.60", st.Le16K)
	}
}

func TestTenCloudMatchesPaperStats(t *testing.T) {
	g := MustGenerator(TenCloud(ws), 2)
	st := ComputeStats(g.Gen(50000), ws)
	// Paper §2.1: 69% updates; 69% 4K; 88% <=16K.
	if st.WriteRatio < 0.67 || st.WriteRatio > 0.71 {
		t.Fatalf("ten write ratio %.3f, want ~0.69", st.WriteRatio)
	}
	if st.Le4K < 0.65 || st.Le4K > 0.73 {
		t.Fatalf("ten <=4K %.3f, want ~0.69", st.Le4K)
	}
	if st.Le16K < 0.84 || st.Le16K > 0.92 {
		t.Fatalf("ten <=16K %.3f, want ~0.88", st.Le16K)
	}
}

func TestTenCloudTighterLocalityThanAli(t *testing.T) {
	ali := ComputeStats(MustGenerator(AliCloud(ws), 3).Gen(30000), ws)
	ten := ComputeStats(MustGenerator(TenCloud(ws), 3).Gen(30000), ws)
	if ten.TouchedFrac >= ali.TouchedFrac {
		t.Fatalf("ten touched %.4f not tighter than ali %.4f", ten.TouchedFrac, ali.TouchedFrac)
	}
}

func TestTenCloudSmallTouchedFraction(t *testing.T) {
	// Paper §2.3.3: most Ten-Cloud datasets process <5% of their volume.
	// The hot set alone is 4%; the cold tail adds a few percent at this op
	// count, so assert the working set stays an order of magnitude below
	// uniform coverage.
	g := MustGenerator(TenCloud(1<<30), 4)
	st := ComputeStats(g.Gen(20000), 1<<30)
	if st.TouchedFrac > 0.11 {
		t.Fatalf("ten-cloud touched fraction %.4f, want < 0.11", st.TouchedFrac)
	}
}

func TestAllMSRVolumes(t *testing.T) {
	for _, vol := range MSRVolumes() {
		p, err := MSR(vol, ws)
		if err != nil {
			t.Fatal(err)
		}
		g := MustGenerator(p, 5)
		st := ComputeStats(g.Gen(20000), ws)
		if st.WriteRatio < p.UpdateRatio-0.03 || st.WriteRatio > p.UpdateRatio+0.03 {
			t.Fatalf("%s write ratio %.3f, want ~%.2f", vol, st.WriteRatio, p.UpdateRatio)
		}
	}
}

func TestMSRUnknownVolume(t *testing.T) {
	if _, err := MSR("nope", ws); err == nil {
		t.Fatal("unknown volume accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := MustGenerator(AliCloud(ws), 7).Gen(1000)
	b := MustGenerator(AliCloud(ws), 7).Gen(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := MustGenerator(AliCloud(ws), 8).Gen(1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestOpsStayInBounds(t *testing.T) {
	g := MustGenerator(TenCloud(8<<20), 9)
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Off < 0 || op.Off+int64(op.Size) > 8<<20 {
			t.Fatalf("op %d out of bounds: %+v", i, op)
		}
		if op.Size <= 0 {
			t.Fatalf("op %d empty: %+v", i, op)
		}
	}
}

func TestSequentialRuns(t *testing.T) {
	p := AliCloud(ws)
	p.SeqRun = 1.0 // always continue
	g := MustGenerator(p, 10)
	prev := g.Next()
	for i := 0; i < 100; i++ {
		op := g.Next()
		if op.Off != prev.Off+int64(prev.Size) && op.Off != 0 {
			t.Fatalf("op %d not sequential: prev=%+v cur=%+v", i, prev, op)
		}
		prev = op
	}
}

func TestInvalidProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "r", UpdateRatio: 1.5, Sizes: []SizeBucket{{4096, 1}}, WorkingSet: 1 << 20},
		{Name: "s", UpdateRatio: 0.5, Sizes: nil, WorkingSet: 1 << 20},
		{Name: "c", UpdateRatio: 0.5, Sizes: []SizeBucket{{4096, 0.5}}, WorkingSet: 1 << 20},
		{Name: "w", UpdateRatio: 0.5, Sizes: []SizeBucket{{4096, 1}}, WorkingSet: 0},
	}
	for _, p := range bad {
		if _, err := NewGenerator(p, 1); err == nil {
			t.Fatalf("profile %s accepted", p.Name)
		}
	}
}
