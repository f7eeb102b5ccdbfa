package harness

import (
	"testing"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/obs"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// TestTracingZeroPerturbation is the obs plane's core contract: turning
// tracing on (even at sample=1) must not move virtual time at all. Span
// context rides every wire message whether traced or not, and span
// recording never sleeps — so two otherwise-identical replays must produce
// identical per-op completion times, not merely similar throughput.
func TestTracingZeroPerturbation(t *testing.T) {
	run := func(sample int) *Result {
		cfg := DefaultRunConfig()
		cfg.Ops = 400
		cfg.Clients = 4
		cfg.FileBytes = 8 << 20
		cfg.Trace = trace.AliCloud(cfg.FileBytes)
		cfg.TraceSample = sample
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("sample=%d: %v", sample, err)
		}
		return r
	}
	off := run(0)
	on := run(1)
	if off.Elapsed != on.Elapsed {
		t.Errorf("tracing moved virtual time: %v untraced vs %v traced", off.Elapsed, on.Elapsed)
	}
	if len(off.Completions) != len(on.Completions) {
		t.Fatalf("op counts differ: %d vs %d", len(off.Completions), len(on.Completions))
	}
	for i := range off.Completions {
		if off.Completions[i] != on.Completions[i] {
			t.Fatalf("op %d completed at %v untraced vs %v traced", i, off.Completions[i], on.Completions[i])
		}
	}
}

// TestOpenLoopCarriesSpans checks the open-loop plumbing the obs
// experiment rides: a traced run returns its spans (assembling into
// update/read traces whose stage sums equal end-to-end exactly) and the
// registry counters, while an untraced run returns none.
func TestOpenLoopCarriesSpans(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Ops = 200
	cfg.Clients = 4
	cfg.FileBytes = 8 << 20
	cfg.Trace = trace.AliCloud(cfg.FileBytes)
	cfg.TraceSample = 1
	res, err := RunOpenLoop(cfg, OpenLoopConfig{
		Arrivals: NewPoissonArrivals(500, 200, cfg.Seed),
		Sample:   nicSampler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced open-loop run returned no spans")
	}
	tvs := obs.GroupTraces(res.Spans)
	if len(tvs) == 0 {
		t.Fatal("spans assembled into no complete traces")
	}
	for i := range tvs {
		var sum time.Duration
		for _, d := range tvs[i].Breakdown() {
			sum += d
		}
		if sum != tvs[i].Duration() {
			t.Fatalf("trace %d: stage sum %v != end-to-end %v", tvs[i].Trace, sum, tvs[i].Duration())
		}
	}
	if res.Metrics["nic_tx_samples"] == 0 {
		t.Error("NIC sampler recorded no ticks")
	}

	cfg.TraceSample = 0
	res2, err := RunOpenLoop(cfg, OpenLoopConfig{
		Arrivals: NewPoissonArrivals(500, 200, cfg.Seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Spans) != 0 {
		t.Fatalf("untraced run recorded %d spans", len(res2.Spans))
	}
}

// TestNICTxUtilMatchesFabric pins nicTxUtil's value: over one short load
// point, it must equal the tx busy time the fabric's NICLoad reports gained
// across the sampler's ticks, computed here directly, over ticks x nodes x
// period.
func TestNICTxUtilMatchesFabric(t *testing.T) {
	inner := nicSampler()
	prev := make(map[wire.NodeID]time.Duration)
	var busy time.Duration
	var samples int
	sample := func(c *cluster.Cluster, now time.Duration) {
		inner(c, now)
		for _, id := range c.Fabric.NodeIDs() {
			tx, _, _, _ := c.Fabric.NICLoad(id)
			busy += tx - prev[id]
			prev[id] = tx
			samples++
		}
	}
	res, err := offerLoad(openLoopTestConfig(), 4000, 200, sample)
	if err != nil {
		t.Fatal(err)
	}
	if busy == 0 || samples == 0 {
		t.Fatalf("sampler saw %v tx busy over %d samples", busy, samples)
	}
	want := 100 * float64(busy) / (float64(samples) * float64(obsNICPeriod))
	if got := nicTxUtil(res); got != want {
		t.Fatalf("nicTxUtil = %v, want %v (%v tx busy over %d samples)", got, want, busy, samples)
	}
}
