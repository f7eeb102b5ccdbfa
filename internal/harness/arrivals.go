package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/obs"
	"tsue/internal/sim"
)

// This file is the open-loop load plane. The closed-loop replay in
// harness.go issues the next op only after the previous one completes, so
// offered load self-throttles to whatever the cluster sustains and latency
// never shows queueing collapse. An open-loop run instead draws arrival
// instants from an ArrivalProcess that is independent of completions: ops
// are dispatched at their scheduled virtual times no matter how many are
// still in flight, which is what exposes the saturation knee (latency vs
// offered load) and gives admission control something real to push back on.

// ArrivalProcess yields successive arrival instants. Implementations must
// be deterministic for a given construction (seed or explicit schedule)
// and must yield nondecreasing times. Next returns ok=false when the
// process is exhausted.
type ArrivalProcess interface {
	Next() (at time.Duration, ok bool)
}

// PoissonArrivals is a Poisson process: interarrival gaps are exponential
// with mean 1/rate, drawn from a seeded rng, for a fixed number of
// arrivals.
type PoissonArrivals struct {
	rng  *rand.Rand
	rate float64
	at   time.Duration
	left int
}

// NewPoissonArrivals builds a Poisson process offering rate ops/sec for n
// arrivals. Same (rate, n, seed) means the identical schedule.
func NewPoissonArrivals(rate float64, n int, seed int64) *PoissonArrivals {
	if rate <= 0 {
		panic(fmt.Sprintf("harness: Poisson rate must be positive, got %v", rate))
	}
	return &PoissonArrivals{rng: rand.New(rand.NewSource(seed)), rate: rate, left: n}
}

// Next returns the next arrival instant.
func (a *PoissonArrivals) Next() (time.Duration, bool) {
	if a.left <= 0 {
		return 0, false
	}
	a.left--
	a.at += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
	return a.at, true
}

// ZipfPicker draws object/offset slot indices over [0, n) with Zipf skew,
// so a few hot slots absorb most of the load — the access pattern that
// makes saturation engine-dependent (log contention concentrates instead
// of spreading). s > 1 and v >= 1 per math/rand: larger s is more skewed.
type ZipfPicker struct {
	z *rand.Zipf
}

// NewZipfPicker builds a deterministic picker over n slots.
func NewZipfPicker(n uint64, s, v float64, seed int64) *ZipfPicker {
	if n == 0 {
		panic("harness: ZipfPicker needs at least one slot")
	}
	return &ZipfPicker{z: rand.NewZipf(rand.New(rand.NewSource(seed)), s, v, n-1)}
}

// Pick returns the next slot index in [0, n).
func (zp *ZipfPicker) Pick() uint64 { return zp.z.Uint64() }

// OpenLoopConfig parameterizes one open-loop replay on top of a RunConfig
// (which still supplies the cluster shape, engine, trace profile and
// seed).
type OpenLoopConfig struct {
	// Arrivals is the arrival process (required). Its length bounds the
	// run: the replay dispatches exactly the ops it yields.
	Arrivals ArrivalProcess
	// Zipf, when non-nil, overrides the trace generator's offsets with
	// Zipf-skewed slot picks (slot size = the profile's Align, or 4 KiB).
	Zipf *ZipfPicker
	// Sample, when non-nil, runs every obsNICPeriod of virtual time for the
	// duration of the replay — the obs experiment's hook for polling NIC
	// link busy time. The sampler is stopped before the final drain (an
	// armed sampler keeps the event queue nonempty forever).
	Sample func(c *cluster.Cluster, now time.Duration)
}

const (
	// overloadBackoff is a submitter's sleep after an ErrOverload bounce
	// before it retries.
	overloadBackoff = 2 * time.Millisecond
	// overloadRetries caps per-op overload retries — effectively
	// retry-to-success unless the policy wedges. An op that exhausts them is
	// counted in OpenLoopResult.Lost and reported, never silently dropped.
	overloadRetries = 10000
)

// OpenLoopResult captures one open-loop run.
type OpenLoopResult struct {
	Submitted int // arrivals dispatched
	Completed int // ops that finished successfully
	Lost      int // ops that exhausted overloadRetries (always reported)
	// Rejections is the number of ErrOverload bounces submitters saw (each
	// was retried after overloadBackoff; MDS-side counters must agree).
	Rejections int64
	// Lats holds per-op latency = completion - scheduled arrival, so
	// queueing delay past the saturation knee shows up even though the
	// cluster never sees the op early. Indexed in completion order.
	Lats []time.Duration
	// Elapsed is first arrival to last completion; Achieved is
	// Completed/Elapsed in ops/sec.
	Elapsed  time.Duration
	Achieved float64
	// Admission mirrors the MDS-side counters at run end.
	Admission cluster.AdmissionStats
	// Spans is a copy of every trace span the run recorded (empty unless
	// cfg.TraceSample > 0).
	Spans []obs.Span
}

// RunOpenLoop builds the cluster from cfg, preloads the file set, and
// replays the arrival schedule open-loop. Ops are generated from the trace
// profile (sizes, read/write mix) with offsets optionally re-skewed by
// ol.Zipf, and dispatched at their arrival instants regardless of how many
// ops are still outstanding. The run is deterministic per (cfg.Seed,
// arrival process, picker) — the sim kernel serializes all procs.
func RunOpenLoop(cfg RunConfig, ol OpenLoopConfig) (*OpenLoopResult, error) {
	if ol.Arrivals == nil {
		return nil, fmt.Errorf("harness: open loop needs an ArrivalProcess")
	}
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	c := s.c

	res := &OpenLoopResult{}
	var smp *obs.Sampler
	if ol.Sample != nil {
		smp = obs.StartSampler(c.Env, obsNICPeriod, func(now time.Duration) { ol.Sample(c, now) })
	}
	err = s.run(func(p *sim.Proc) error {
		err := s.openLoop(p, ol, res)
		if smp != nil {
			smp.Stop()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if res.Elapsed > 0 {
		res.Achieved = float64(res.Completed) / res.Elapsed.Seconds()
	}
	res.Admission = c.AdmissionStats()
	res.Spans = append([]obs.Span(nil), c.Obs.Tracer.Spans()...)
	return res, nil
}

// openLoop dispatches the arrival schedule over a pool of cfg.Clients
// clients (open-loop concurrency is set by the arrival rate, not the pool;
// the pool only spreads view-cache refreshes).
func (s *session) openLoop(p *sim.Proc, ol OpenLoopConfig, res *OpenLoopResult) error {
	gen := s.generator(s.cfg.Seed)
	align := s.cfg.Trace.Align
	if align <= 0 {
		align = 4 << 10
	}
	pool := make([]*cluster.Client, s.cfg.Clients)
	for i := range pool {
		pool[i] = s.c.NewClient()
	}

	start := p.Now()
	var firstErr error
	wg := sim.NewWaitGroup(s.c.Env)
	for i := 0; ; i++ {
		at, ok := ol.Arrivals.Next()
		if !ok {
			break
		}
		// The dispatcher sleeps to the arrival instant and fires the op
		// into its own proc — it never waits for completions, so in-flight
		// depth floats with offered load (the open-loop property).
		if wait := start + at - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
		op := gen.Next()
		if ol.Zipf != nil {
			op.Off = int64(ol.Zipf.Pick()) * align
		}
		ino := s.inos[i%len(s.inos)]
		cl := pool[i%len(pool)]
		arrival := p.Now() - start
		res.Submitted++
		wg.Add(1)
		s.c.Env.Go(fmt.Sprintf("arrival%d", i), func(cp *sim.Proc) {
			defer wg.Done()
			for try := 1; ; try++ {
				err := s.issue(cp, cl, ino, op)
				if err == nil {
					break
				}
				if !errors.Is(err, cluster.ErrOverload) {
					if firstErr == nil {
						firstErr = fmt.Errorf("open-loop op %d: %w", i, err)
					}
					return
				}
				res.Rejections++
				if try >= overloadRetries {
					res.Lost++
					return
				}
				cp.Sleep(overloadBackoff)
			}
			res.Completed++
			t := cp.Now() - start
			res.Lats = append(res.Lats, t-arrival)
			res.Elapsed = max(res.Elapsed, t)
		})
	}
	wg.Wait(p)
	return firstErr
}
