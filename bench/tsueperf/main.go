// Command tsueperf is the repository's benchmark: four named workloads against
// the public API of the simulated cluster, end-to-end metrics on two clocks
// (sim time: the modelled cluster; host time: the simulator), per-layer
// drivers, and a traced pass. README.md in this directory is the glossary.
//
//	tsueperf -workload ali_tsue -seed 1 -seconds 14 -trace 0
//	tsueperf -list
//	tsueperf -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the host time the five timed
// phases of a run take together on the reference machine. -seconds scales
// every op count by seconds/runSeconds; it never changes the iteration count.
const runSeconds = 14

type config struct {
	workload   string
	seed       int64
	scale      float64
	fileMB     int64 // 0 = the workload's own size
	iters      int   // timed iterations
	traced     bool
	driverTime time.Duration // minimum length of one layer-driver loop
	outDir     string
	cpuProfile string
	memProfile string
}

// stat is one reported value. For a host-clock metric Value is the median of
// the timed iterations, Q1/Q3 their quartiles and N their count; for a
// sim-clock metric Value comes from the pooled record and N is the number of
// samples behind a percentile (0 otherwise).
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload   string          `json:"workload"`
	Seed       int64           `json:"seed"`
	Traced     bool            `json:"traced"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"` // failed + lost ops + read-back mismatches
	ErrorRate  float64         `json:"error_rate"`
	EndToEnd   map[string]stat `json:"end_to_end"`
	PerLayer   map[string]stat `json:"per_layer,omitempty"`
	Notes      []string        `json:"notes,omitempty"`
	TraceFile  string          `json:"trace_file,omitempty"`
	stripes    int
	slots      int
	iterations int
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	var listOnly, compareMode bool
	var jsonOut string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&seconds, "seconds", runSeconds, "host seconds the timed phases should take together; scales the op counts")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass, the layer drivers and the six-engine sweep, and reports the per-layer metrics")
	flag.BoolVar(&listOnly, "list", false, "print the workloads and every metric, then exit")
	flag.BoolVar(&compareMode, "compare", false, "compare two result files written with -json: tsueperf -compare a.jsonl b.jsonl")
	flag.StringVar(&jsonOut, "json", "", "append the run's full result to this file, one JSON object per line")
	flag.StringVar(&cfg.outDir, "out", "bench/tsueperf/out", "directory for trace_<workload>.json")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the last timed phase to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write an allocation profile, taken when the last timed phase ends, to this file")
	flag.Parse()

	switch {
	case listOnly:
		exitOn(list(os.Stdout))
		return
	case compareMode:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if !ok {
			os.Exit(1)
		}
		return
	}
	if findWorkload(cfg.workload) == nil {
		exitOn(fmt.Errorf("unknown workload %q; -list names them", cfg.workload))
	}
	if seconds <= 0 {
		exitOn(fmt.Errorf("-seconds must be positive"))
	}
	cfg.scale = seconds / runSeconds
	cfg.iters = timedIters
	cfg.traced = trace == 1
	cfg.driverTime = 300 * time.Millisecond

	rep, err := runWorkload(cfg, os.Stdout)
	exitOn(err)
	rep.print(os.Stdout)
	if jsonOut != "" {
		exitOn(appendJSON(jsonOut, rep))
	}
	// The last line of standard output is the driver's contract.
	metrics := rep.EndToEnd
	if cfg.traced {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, valueUnits(metrics)})
	exitOn(err)
	fmt.Println(string(line))
	if rep.Failed != 0 {
		os.Exit(1)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func valueUnits(m map[string]stat) map[string]valueUnit {
	out := make(map[string]valueUnit, len(m))
	for name, s := range m {
		out[name] = valueUnit{s.Value, s.Unit}
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsueperf:", err)
		os.Exit(2)
	}
}

func appendJSON(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// subSeed derives the seed of timed iteration i from the run's seed
// (splitmix64), so that neighbouring run seeds share no iteration.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// runWorkload runs one workload: a discarded warm-up iteration, cfg.iters
// timed ones, and with cfg.traced the traced pass, the layer drivers and the
// engine sweep. Progress goes to log.
func runWorkload(cfg config, log io.Writer) (*report, error) {
	wl := findWorkload(cfg.workload)
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}

	one := func(label string, i int, traced bool, prof func(*iter)) (*iter, error) {
		it := newIter(subSeed(cfg.seed, i), cfg.scale, cfg.fileMB, traced)
		if prof != nil {
			prof(it)
		}
		t0 := time.Now()
		err := wl.run(it)
		it.finish()
		rep.Attempted += it.attempted
		rep.Failed += it.failed + it.lost + it.mismatched
		rep.stripes += it.stripes
		rep.slots += it.slotsChecked
		rep.iterations++
		fmt.Fprintf(log, "# %-8s sub-seed %-20d %6.2fs wall, %5.2fs timed, %d ops, %d stripes clean, %d slots equal\n",
			label, it.seed, time.Since(t0).Seconds(), it.groupCost(groupTimed).host.Seconds(), it.ops, it.stripes, it.slotsChecked)
		if err != nil {
			return it, fmt.Errorf("%s (%s, sub-seed %d): %w", cfg.workload, label, it.seed, err)
		}
		return it, nil
	}

	// Warm-up: same inputs as the first timed iteration, so the pair doubles
	// as the run's determinism check.
	warm, err := one("warm-up", 0, false, nil)
	if err != nil {
		return nil, err
	}
	timed := make([]*iter, cfg.iters)
	pooled := newAgg()
	for i := range timed {
		var prof func(*iter)
		if i == cfg.iters-1 {
			prof = cfg.profile
		}
		if timed[i], err = one(fmt.Sprintf("timed %d", i+1), i, false, prof); err != nil {
			return nil, err
		}
		pooled.merge(timed[i].agg)
	}
	first := derive(cfg.workload, timed[0].agg).val
	if diff := sameSim(derive(cfg.workload, warm.agg).val, first); len(diff) > 0 {
		return nil, fmt.Errorf("%s: nondeterministic: two iterations on sub-seed %d disagree on %v", cfg.workload, warm.seed, diff)
	}

	// Sim-clock values come from the pooled record of the timed iterations,
	// host-clock values from their median.
	d := derive(cfg.workload, pooled)
	hostVals := func(name string) []float64 {
		vs := make([]float64, len(timed))
		for i, it := range timed {
			vs[i] = it.host[name]
		}
		return vs
	}
	put := func(into map[string]stat, m metricDef) {
		if m.clock == simClock {
			if v, ok := d.val[m.name]; ok {
				into[m.name] = stat{Value: v, Unit: m.unit, N: d.samples[m.name]}
			}
			return
		}
		if _, ok := timed[0].host[m.name]; ok { // the others come from the drivers and the sweep
			vs := hostVals(m.name)
			q1, q2, q3 := quartiles(vs)
			into[m.name] = stat{Value: q2, Unit: m.unit, Q1: q1, Q3: q3, N: len(vs)}
		}
	}
	for _, m := range endToEnd {
		put(rep.EndToEnd, m)
	}
	for _, name := range d.lowN {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s has fewer than %d samples beyond it (%d samples)", name, minTail, d.samples[name]))
	}
	if len(d.lowN) > 0 && cfg.scale >= 1 {
		return nil, fmt.Errorf("%s: too few samples at full size: %v", cfg.workload, rep.Notes)
	}
	rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	if !cfg.traced {
		return rep, nil
	}

	// Traced pass: one more iteration on the first sub-seed with every op
	// traced. It must leave every sim-clock value where the untraced
	// iteration put it.
	tr, err := one("traced", 0, true, nil)
	if err != nil {
		return nil, err
	}
	td := derive(cfg.workload, tr.agg)
	for name, v := range first {
		if tv := td.val[name]; tv != v {
			return nil, fmt.Errorf("%s: tracing perturbed %s: %v untraced, %v traced", cfg.workload, name, v, tv)
		}
	}
	if r := td.val["obs.stage_sum_ratio"]; r < 0.95 || r > 1.05 {
		return nil, fmt.Errorf("%s: stage sums are %.3f of end-to-end update time (want within 5%%)", cfg.workload, r)
	}
	tr.rec.closeRoot()
	if rep.TraceFile, err = tr.rec.write(cfg.outDir, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	for name, v := range td.val { // the obs.* values exist only here
		if _, ok := d.val[name]; !ok {
			d.val[name] = v
		}
	}
	for _, m := range perLayer {
		put(rep.PerLayer, m)
	}
	untraced := median(hostVals("host.timed_s"))
	rep.PerLayer["obs.trace_overhead_pct"] = stat{Value: 100 * (tr.host["host.timed_s"] - untraced) / untraced, Unit: "%"}
	rep.PerLayer["host.wall_iqr_pct"] = stat{Value: spreadPct(hostVals("host_ops_per_s")), Unit: "%"}

	fmt.Fprintf(log, "# layer drivers, %v each\n", cfg.driverTime)
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	for name, v := range runDrivers(cfg.driverTime, cfg.seed) {
		rep.PerLayer[name] = stat{Value: v, Unit: units[name]}
	}
	sweep, err := runEngines(cfg, rep, log)
	if err != nil {
		return nil, err
	}
	for name, v := range sweep {
		rep.PerLayer[name] = stat{Value: v, Unit: units[name]}
	}
	return rep, nil
}

// profile arms the CPU and allocation profiles on an iteration.
func (cfg config) profile(it *iter) {
	if cfg.cpuProfile == "" && cfg.memProfile == "" {
		return
	}
	var cpu *os.File
	it.onTimed = func(start bool) {
		switch {
		case start && cfg.cpuProfile != "":
			f, err := os.Create(cfg.cpuProfile)
			exitOn(err)
			exitOn(pprof.StartCPUProfile(f))
			cpu = f
		case !start:
			if cpu != nil {
				pprof.StopCPUProfile()
				exitOn(cpu.Close())
			}
			if cfg.memProfile != "" {
				f, err := os.Create(cfg.memProfile)
				exitOn(err)
				exitOn(pprof.Lookup("allocs").WriteTo(f, 0))
				exitOn(f.Close())
			}
		}
	}
}

// print writes every metric by name, with its unit and clock.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  iterations %d  attempted %d  failed %d  error_rate %g  (%d stripes scrubbed clean, %d slots read back equal)\n",
		rep.Workload, rep.Seed, rep.iterations, rep.Attempted, rep.Failed, rep.ErrorRate, rep.stripes, rep.slots)
	section := func(title string, defs []metricDef, vals map[string]stat) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range defs {
			s, ok := vals[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-40s %16.6g %-5s %-4s %-6s", m.name, s.Value, m.unit, m.clock, m.better)
			switch {
			case m.clock == hostClock && s.N > 1:
				fmt.Fprintf(w, " q1 %.6g q3 %.6g n=%d", s.Q1, s.Q3, s.N)
			case s.N > 0:
				fmt.Fprintf(w, " n=%d", s.N)
			}
			if m.bound > 0 {
				fmt.Fprintf(w, " bound %.0f%%", 100*m.bound)
			}
			fmt.Fprintln(w)
		}
	}
	section("end-to-end", endToEnd, rep.EndToEnd)
	section("per-layer", perLayer, rep.PerLayer)
	sort.Strings(rep.Notes)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	if rep.TraceFile != "" {
		fmt.Fprintln(w, "trace:", rep.TraceFile)
	}
}
