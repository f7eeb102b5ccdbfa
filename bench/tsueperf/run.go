package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/sim"
)

// One run of a workload is one discarded warm-up iteration plus timedIters
// timed ones, each on a fresh cluster with the same seed. Sim-clock values
// must repeat exactly from iteration to iteration; host-clock values are
// reported as the median of the timed iterations.
const timedIters = 5

// Phase groups. Setup and the timed phase are the two host-clock spans the
// end-to-end metrics are built from; verification is untimed.
const (
	groupSetup  = "setup"
	groupTimed  = "timed"
	groupVerify = "verify"
)

// cost is what one or more phases consumed.
type cost struct {
	host   time.Duration
	sim    time.Duration
	cpu    time.Duration
	events int64
	alloc  uint64
	gcs    uint32
}

func (a *cost) add(b cost) {
	a.host += b.host
	a.sim += b.sim
	a.cpu += b.cpu
	a.events += b.events
	a.alloc += b.alloc
	a.gcs += b.gcs
}

// iter is one iteration of a workload: the knobs it runs with, the phase
// accounting, and the values it produced.
type iter struct {
	seed   int64
	scale  float64 // multiplies every op count (1 = the defined size)
	fileMB int64   // overrides the workload's file size when > 0 (smoke test)
	traced bool    // TraceSample = 1 and benchmark-side spans
	rec    *recorder

	// onTimed, when set, is told when the timed phase starts and ends
	// (profiles).
	onTimed func(start bool)
	timedOn bool

	events   int64 // kernel events executed by the step loop
	phases   map[string]*cost
	groups   map[string]*cost
	peakHeap uint64

	// agg is the raw sim-clock record every sim-clock metric derives from;
	// host holds the host-clock values of this iteration.
	agg  *agg
	host map[string]float64

	attempted, failed, lost, mismatched int
	ops                                 int // completed client ops of the timed phase
	stripes, slotsChecked               int
}

func newIter(seed int64, scale float64, fileMB int64, traced bool) *iter {
	it := &iter{
		seed: seed, scale: scale, fileMB: fileMB, traced: traced,
		phases: map[string]*cost{}, groups: map[string]*cost{},
		agg: newAgg(), host: map[string]float64{},
	}
	if traced {
		it.rec = newRecorder()
	}
	return it
}

// scaled returns n op counts scaled to this iteration, never below floor.
func (it *iter) scaled(n, floor int) int {
	v := int(math.Round(float64(n) * it.scale))
	if v < floor {
		v = floor
	}
	return v
}

func (it *iter) fileBytes(defMB int64) int64 {
	if it.fileMB > 0 {
		return it.fileMB << 20
	}
	return defMB << 20
}

func (it *iter) traceSample() int {
	if it.traced {
		return 1
	}
	return 0
}

// phase is one open phase span.
type phase struct {
	it          *iter
	name, group string
	env         *sim.Env
	host0       time.Time
	sim0        time.Duration
	cpu0        time.Duration
	ev0         int64
	mem0        runtime.MemStats
	span        int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens a phase. env may be nil for work outside any simulation, and
// group empty for a phase nested in another whose group already counts it.
func (it *iter) begin(env *sim.Env, name, group string) *phase {
	if group == groupTimed && !it.timedOn {
		it.timedOn = true
		if it.onTimed != nil {
			it.onTimed(true)
		}
	}
	ph := &phase{it: it, name: name, group: group, env: env, ev0: it.events, span: -1}
	if env != nil {
		ph.sim0 = env.Now()
	}
	if it.rec != nil {
		ph.span = it.rec.open(name, "cluster", it.rec.cur)
	}
	runtime.ReadMemStats(&ph.mem0)
	ph.cpu0 = cpuTime()
	ph.host0 = time.Now()
	return ph
}

func (ph *phase) end() {
	host := time.Since(ph.host0)
	it := ph.it
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := cost{
		host:   host,
		cpu:    cpuTime() - ph.cpu0,
		events: it.events - ph.ev0,
		alloc:  m.TotalAlloc - ph.mem0.TotalAlloc,
		gcs:    m.NumGC - ph.mem0.NumGC,
	}
	if ph.env != nil {
		c.sim = ph.env.Now() - ph.sim0
	}
	if m.HeapInuse > it.peakHeap {
		it.peakHeap = m.HeapInuse
	}
	for _, into := range []struct {
		m   map[string]*cost
		key string
	}{{it.phases, ph.name}, {it.groups, ph.group}} {
		if into.key == "" {
			continue
		}
		if into.m[into.key] == nil {
			into.m[into.key] = &cost{}
		}
		into.m[into.key].add(c)
	}
	if it.rec != nil {
		it.rec.close(ph.span, ph.host0, host, ph.sim0, ph.sim0+c.sim)
	}
}

func (it *iter) phaseCost(name string) cost {
	if c := it.phases[name]; c != nil {
		return *c
	}
	return cost{}
}

func (it *iter) groupCost(name string) cost {
	if c := it.groups[name]; c != nil {
		return *c
	}
	return cost{}
}

// build times cluster.New as a setup phase.
func (it *iter) build(engine string, fileBytes int64, adm cluster.AdmissionPolicy) (*cluster.Cluster, error) {
	runtime.GC() // the previous cluster is garbage by now; do not charge it to setup
	ph := it.begin(nil, "new", groupSetup)
	c, err := newCluster(engine, fileBytes, adm, it.traceSample())
	ph.end()
	return c, err
}

// drive runs body as a sim process and steps the kernel itself, one event at
// a time, so the benchmark holds an exact count of the events executed.
func (it *iter) drive(c *cluster.Cluster, body func(p *sim.Proc) error) error {
	var err error
	c.Env.Go("tsueperf", func(p *sim.Proc) { err = body(p) })
	for c.Env.HasPendingEvents() {
		c.Env.ProcessNextEvent()
		it.events++
	}
	c.Env.Close()
	return err
}

// load preloads the file as a setup phase, then collects garbage (untimed) so
// the timed phase starts from a settled heap.
func (it *iter) load(p *sim.Proc, c *cluster.Cluster, fileBytes int64) (*bed, error) {
	ph := it.begin(c.Env, "preload", groupSetup)
	b, err := preload(p, c, fileBytes, it.seed)
	ph.end()
	runtime.GC()
	return b, err
}

// drain runs DrainAll as part of the timed phase.
func (it *iter) drain(p *sim.Proc, b *bed) error {
	ph := it.begin(b.c.Env, "drain", groupTimed)
	err := b.c.DrainAll(p, b.admin)
	ph.end()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// gate runs the correctness gate (untimed) and folds its verdict in.
func (it *iter) gate(p *sim.Proc, b *bed) error {
	if it.onTimed != nil {
		it.onTimed(false)
	}
	ph := it.begin(b.c.Env, "scrub", groupVerify)
	n, err := b.scrub()
	ph.end()
	it.stripes += n
	if err != nil {
		return err
	}
	ph = it.begin(b.c.Env, "readback", groupVerify)
	bad, checked, err := b.readBack(p)
	ph.end()
	it.slotsChecked += checked
	it.mismatched += bad
	return err
}

// finish derives the host-clock end-to-end values once the workload is done.
func (it *iter) finish() {
	timed := it.groupCost(groupTimed)
	setup := it.groupCost(groupSetup)
	ops := float64(it.ops)
	if ops > 0 && timed.host > 0 {
		it.host["host_ops_per_s"] = ops / timed.host.Seconds()
		it.host["host_alloc_bytes_per_op"] = float64(timed.alloc) / ops
		it.host["host.cpu_s_per_kop"] = timed.cpu.Seconds() / (ops / 1000)
	}
	it.agg.add("events", float64(timed.events))
	it.agg.add("drain_sim_s", it.phaseCost("drain").sim.Seconds())
	it.host["setup_s"] = setup.host.Seconds()
	it.host["host.timed_s"] = timed.host.Seconds()
	it.host["host.peak_heap_mb"] = float64(it.peakHeap) / (1 << 20)
	it.host["host.gc_count"] = float64(timed.gcs)
	it.host["cluster.new_ms"] = ms(it.phaseCost("new").host)
	it.host["cluster.preload_ms"] = ms(it.phaseCost("preload").host)
	it.host["cluster.replay_host_ms"] = ms(it.phaseCost("replay").host)
	it.host["cluster.drain_host_ms"] = ms(it.phaseCost("drain").host)
	it.host["cluster.scrub_host_ms"] = ms(it.phaseCost("scrub").host)
	it.host["cluster.recover_host_ms"] = ms(it.phaseCost("recover").host)
}

// sameSim reports the sim-clock names whose values differ between two
// iterations, bit for bit.
func sameSim(a, b map[string]float64) []string {
	var diff []string
	for name, va := range a {
		vb, ok := b[name]
		if !ok || math.Float64bits(va) != math.Float64bits(vb) {
			diff = append(diff, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			diff = append(diff, name)
		}
	}
	sort.Strings(diff)
	return diff
}
