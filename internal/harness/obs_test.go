package harness

import (
	"testing"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/obs"
	"tsue/internal/sim"
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
// update/read traces whose stage sums equal end-to-end exactly) and drives
// the NIC sampler, while an untraced run returns no spans.
func TestOpenLoopCarriesSpans(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Ops = 200
	cfg.Clients = 4
	cfg.FileBytes = 8 << 20
	cfg.Trace = trace.AliCloud(cfg.FileBytes)
	cfg.TraceSample = 1
	var nic nicLoad
	res, err := RunOpenLoop(cfg, OpenLoopConfig{
		Arrivals: NewPoissonArrivals(500, 200, cfg.Seed),
		Sample:   nic.sample,
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
	if nic.samples == 0 {
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

// TestNICTxUtilMatchesFabric pins nicLoad.util's value: over one short load
// point, it must equal the tx busy time the fabric's NICLoad reports gained
// across the sampler's ticks, computed here directly, over ticks x nodes x
// period.
func TestNICTxUtilMatchesFabric(t *testing.T) {
	var nic nicLoad
	prev := make(map[wire.NodeID]time.Duration)
	var busy time.Duration
	var samples int
	sample := func(c *cluster.Cluster, now time.Duration) {
		nic.sample(c, now)
		for _, id := range c.Fabric.NodeIDs() {
			tx, _, _, _ := c.Fabric.NICLoad(id)
			busy += tx - prev[id]
			prev[id] = tx
			samples++
		}
	}
	if _, err := offerLoad(openLoopTestConfig(), 4000, 200, sample); err != nil {
		t.Fatal(err)
	}
	if busy == 0 || samples == 0 {
		t.Fatalf("sampler saw %v tx busy over %d samples", busy, samples)
	}
	want := 100 * float64(busy) / (float64(samples) * float64(obsNICPeriod))
	if got := nic.util(); got != want {
		t.Fatalf("nicLoad.util = %v, want %v (%v tx busy over %d samples)", got, want, busy, samples)
	}
}

// TestWaitLoadMatchesResources pins waitLoad's view of one short load
// point: each resource kind's mean wait per grant is the queue wait the NIC
// legs and disks report gained between the sampler's first and last tick,
// computed here directly, over the grants gained. An engine without
// background procs queues no background waiter.
func TestWaitLoadMatchesResources(t *testing.T) {
	var waits waitLoad
	var first, last [len(waitKinds)]sim.Waits
	ticks := 0
	sample := func(c *cluster.Cluster, now time.Duration) {
		waits.sample(c, now)
		var cur [len(waitKinds)]sim.Waits
		for _, id := range c.Fabric.NodeIDs() {
			tx, rx := c.Fabric.NICWaits(id, sim.Foreground)
			cur[0].Add(tx)
			cur[1].Add(rx)
		}
		for _, o := range c.OSDs {
			cur[2].Add(o.Device().Waits(sim.Foreground))
		}
		if ticks == 0 {
			first = cur
		}
		last = cur
		ticks++
	}
	if _, err := offerLoad(openLoopTestConfig(), 4000, 200, sample); err != nil {
		t.Fatal(err)
	}
	if ticks < 2 {
		t.Fatalf("sampler ticked %d times", ticks)
	}
	for k, name := range waitKinds {
		w := last[k].Sub(first[k])
		if w.Grants == 0 {
			t.Fatalf("%s: no foreground grants over the load point", name)
		}
		if got, want := waits.mean(k, sim.Foreground), w.Queued/time.Duration(w.Grants); got != want {
			t.Errorf("%s: foreground mean wait %v, want %v", name, got, want)
		}
		if bg := waits.last[k][sim.Background]; bg != (sim.Waits{}) {
			t.Errorf("%s: background waits %+v under fo, want none", name, bg)
		}
	}
}
