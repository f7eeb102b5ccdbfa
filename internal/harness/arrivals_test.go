package harness

import (
	"testing"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/trace"
)

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := NewPoissonArrivals(500, 64, 42)
	b := NewPoissonArrivals(500, 64, 42)
	var prev time.Duration
	for i := 0; i < 64; i++ {
		ta, oka := a.Next()
		tb, okb := b.Next()
		if !oka || !okb {
			t.Fatalf("arrival %d: exhausted early (ok=%v/%v)", i, oka, okb)
		}
		if ta != tb {
			t.Fatalf("arrival %d: same seed diverged: %v vs %v", i, ta, tb)
		}
		if ta < prev {
			t.Fatalf("arrival %d: time went backwards: %v < %v", i, ta, prev)
		}
		prev = ta
	}
	if _, ok := a.Next(); ok {
		t.Fatal("process yielded a 65th arrival")
	}
	// A different seed must give a different schedule.
	c := NewPoissonArrivals(500, 64, 43)
	same := true
	a2 := NewPoissonArrivals(500, 64, 42)
	for i := 0; i < 64; i++ {
		ta, _ := a2.Next()
		tc, _ := c.Next()
		if ta != tc {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestPoissonArrivalsMeanRate(t *testing.T) {
	const rate, n = 1000.0, 4000
	a := NewPoissonArrivals(rate, n, 7)
	var lastAt time.Duration
	for {
		at, ok := a.Next()
		if !ok {
			break
		}
		lastAt = at
	}
	got := float64(n) / lastAt.Seconds()
	if got < 0.9*rate || got > 1.1*rate {
		t.Fatalf("empirical rate %.0f ops/s, want within 10%% of %.0f", got, rate)
	}
}

func TestZipfPickerSkewAndDeterminism(t *testing.T) {
	const n = 256
	a := NewZipfPicker(n, 1.2, 1, 11)
	b := NewZipfPicker(n, 1.2, 1, 11)
	counts := make([]int, n)
	for i := 0; i < 10000; i++ {
		va, vb := a.Pick(), b.Pick()
		if va != vb {
			t.Fatalf("pick %d: same seed diverged: %d vs %d", i, va, vb)
		}
		if va >= n {
			t.Fatalf("pick %d out of range: %d", i, va)
		}
		counts[va]++
	}
	// Zipf skew: the hottest 5% of slots must absorb well over half the
	// accesses (uniform would give them 5%).
	hot := 0
	for i := 0; i < n/20; i++ {
		hot += counts[i]
	}
	if hot < 5000 {
		t.Fatalf("top 5%% of slots got %d/10000 picks; not Zipf-skewed", hot)
	}
}

// openLoopTestConfig is a tiny cluster the open-loop tests finish quickly
// on.
func openLoopTestConfig() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Engine = "fo"
	cfg.OSDs = 10
	cfg.Clients = 4
	cfg.Ops = 64 // unused by open loop (arrival process bounds the run)
	cfg.FileBytes = 12 << 20
	cfg.BlockSize = 256 << 10
	cfg.Trace = trace.AliCloud(cfg.FileBytes)
	return cfg
}

// TestOpenLoopDeterministic pins the load plane's reproducibility: two
// runs with identical seeds produce identical completion counts, latency
// samples and elapsed virtual time (run under -race in CI).
func TestOpenLoopDeterministic(t *testing.T) {
	do := func() *OpenLoopResult {
		cfg := openLoopTestConfig()
		res, err := RunOpenLoop(cfg, OpenLoopConfig{
			Arrivals: NewPoissonArrivals(800, 120, cfg.Seed),
			Zipf:     NewZipfPicker(uint64(cfg.FileBytes/(4<<10)), 1.1, 1, cfg.Seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := do(), do()
	if a.Submitted != b.Submitted || a.Completed != b.Completed || a.Elapsed != b.Elapsed {
		t.Fatalf("runs diverged: %d/%d/%v vs %d/%d/%v",
			a.Submitted, a.Completed, a.Elapsed, b.Submitted, b.Completed, b.Elapsed)
	}
	if len(a.Lats) != len(b.Lats) {
		t.Fatalf("latency sample counts diverged: %d vs %d", len(a.Lats), len(b.Lats))
	}
	for i := range a.Lats {
		if a.Lats[i] != b.Lats[i] {
			t.Fatalf("latency sample %d diverged: %v vs %v", i, a.Lats[i], b.Lats[i])
		}
	}
	if a.Completed != a.Submitted {
		t.Fatalf("completed %d of %d submitted with no admission policy", a.Completed, a.Submitted)
	}
}

// TestOpenLoopArrivalsIndependentOfCompletion pins the open-loop property:
// the whole schedule is submitted even when the cluster cannot keep up, so
// in-flight depth (and with it latency) grows instead of the offered load
// silently shrinking.
func TestOpenLoopArrivalsIndependentOfCompletion(t *testing.T) {
	cfg := openLoopTestConfig()
	const ops = 150
	// Offered load far past anything the cluster sustains: all arrivals in
	// the first ~1.5ms of the run.
	res, err := RunOpenLoop(cfg, OpenLoopConfig{
		Arrivals: NewPoissonArrivals(100000, ops, cfg.Seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != ops {
		t.Fatalf("submitted %d/%d: arrivals throttled by completions", res.Submitted, ops)
	}
	if res.Completed != ops {
		t.Fatalf("completed %d/%d", res.Completed, ops)
	}
	dist := NewLatencyDist(res.Lats)
	if dist.P(0.99) <= dist.P(0.10) {
		t.Fatalf("overload did not stretch the latency tail: p99=%v p10=%v", dist.P(0.99), dist.P(0.10))
	}
}

// TestOpenLoopAdmissionAccounting runs the open loop against a tight
// in-flight cap: rejections must be counted identically on both sides and
// every bounced op must be retried to success (zero lost).
func TestOpenLoopAdmissionAccounting(t *testing.T) {
	cfg := openLoopTestConfig()
	cfg.Admission = &cluster.TokenBucket{MaxInflight: 4}
	res, err := RunOpenLoop(cfg, OpenLoopConfig{
		Arrivals: NewPoissonArrivals(20000, 100, cfg.Seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejections == 0 {
		t.Fatal("10x overload never bounced at the admission gate")
	}
	if res.Admission.Rejected != res.Rejections {
		t.Fatalf("MDS counted %d rejections, submitters saw %d", res.Admission.Rejected, res.Rejections)
	}
	if res.Lost != 0 {
		t.Fatalf("%d ops lost to retry exhaustion", res.Lost)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
	if res.Admission.Inflight != 0 {
		t.Fatalf("in-flight gauge %d after drain", res.Admission.Inflight)
	}
}
