// Command benchgate is the perf-regression gate: it diffs freshly produced
// BENCH_<exp>.json result files (tsuebench -json) against the committed
// baseline trajectory under bench/baselines/ and fails when a gated metric
// regresses by more than the threshold. CI runs it after regenerating the
// quick-scale saturation and obs experiments, so a change that silently
// inflates the admitted-load p99 or deflates the max sustainable IOPS
// breaks the build instead of the trajectory.
//
// Usage:
//
//	benchgate                              # gate saturation,obs at 25%
//	benchgate -exps saturation -pct 10
//	benchgate -baseline bench/baselines -fresh .
//
// Gated metrics:
//
//	lat_p99_ms, p99_ms      higher is worse — fail if fresh > base*(1+pct/100)
//	max_sustainable_iops    higher is better — fail if fresh < base*(1-pct/100)
//
// Sub-50µs latency baselines are exempt from the ratio check (a scheduler
// tick there is already >25%); they gate on an absolute 50µs ceiling
// instead. A gated metric present in the baseline but missing from the
// fresh run is itself a failure — a gate that can be silently narrowed is
// no gate.
//
// Load points are relative (load=0.75x is 0.75 of the engine's own
// closed-loop calibration), so an engine that got faster is gated at a
// higher absolute rate. A failing row with a load label therefore also
// prints both runs' offered rate and the engine's calib_iops, read from
// each directory's saturation file; the pass/fail rule ignores them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"tsue/internal/harness"
)

// key canonicalizes a metric identity: name plus sorted labels.
func key(m harness.Metric) string {
	parts := make([]string, 0, len(m.Labels))
	for k, v := range m.Labels {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return m.Name + "{" + strings.Join(parts, ",") + "}"
}

// higherWorse metrics gate on inflation, higherBetter on deflation.
var (
	higherWorse  = map[string]bool{"lat_p99_ms": true, "p99_ms": true}
	higherBetter = map[string]bool{"max_sustainable_iops": true}
)

// latFloorMs exempts microscopic latency baselines from the ratio check:
// below this, one scheduler tick of drift already exceeds any reasonable
// percentage, so such metrics gate on the absolute ceiling instead.
const latFloorMs = 0.05

// calibIOPS returns each engine's closed-loop calibration throughput from
// dir's saturation file (nil if there is none). The obs experiment
// calibrates with the same config and seed, so the table serves its load
// points too.
func calibIOPS(dir string) map[string]float64 {
	f, err := harness.LoadBenchFile(dir, "saturation")
	if err != nil {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range f.Metrics {
		if m.Name == "calib_iops" {
			out[m.Labels["engine"]] = m.Value
		}
	}
	return out
}

// loadPoint describes where a relative load point sat in absolute terms in
// each run: offered = fraction x calib_iops, which is what saturation
// records as offered_iops (obs rows record no rate of their own). It is ""
// for a metric with no load label or an engine with no calibration on
// either side.
func loadPoint(m harness.Metric, baseCalib, freshCalib map[string]float64) string {
	frac, err := strconv.ParseFloat(strings.TrimSuffix(m.Labels["load"], "x"), 64)
	if err != nil {
		return ""
	}
	eng := m.Labels["engine"]
	b, okB := baseCalib[eng]
	f, okF := freshCalib[eng]
	if !okB || !okF {
		return ""
	}
	return fmt.Sprintf("; load point: offered_iops %.0f -> %.0f, calib_iops %.0f -> %.0f", frac*b, frac*f, b, f)
}

func gateExperiment(baseDir, freshDir, exp string, pct float64) []string {
	base, err := harness.LoadBenchFile(baseDir, exp)
	if err != nil {
		return []string{fmt.Sprintf("%s: baseline: %v", exp, err)}
	}
	fresh, err := harness.LoadBenchFile(freshDir, exp)
	if err != nil {
		return []string{fmt.Sprintf("%s: fresh run: %v", exp, err)}
	}
	if base.Scale != fresh.Scale || base.Ops != fresh.Ops {
		return []string{fmt.Sprintf("%s: incomparable runs: baseline %s/%d ops vs fresh %s/%d ops",
			exp, base.Scale, base.Ops, fresh.Scale, fresh.Ops)}
	}
	got := make(map[string]float64, len(fresh.Metrics))
	for _, m := range fresh.Metrics {
		got[key(m)] = m.Value
	}
	baseCalib, freshCalib := calibIOPS(baseDir), calibIOPS(freshDir)
	var fails []string
	checked := 0
	for _, m := range base.Metrics {
		worse, better := higherWorse[m.Name], higherBetter[m.Name]
		if !worse && !better {
			continue
		}
		cur, ok := got[key(m)]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: %s missing from fresh run", exp, key(m)))
			continue
		}
		checked++
		var fail string
		switch {
		case worse && m.Value < latFloorMs:
			if cur > latFloorMs {
				fail = fmt.Sprintf("%s: %s rose %.4f -> %.4f ms (above the %.0fµs sub-floor ceiling)",
					exp, key(m), m.Value, cur, latFloorMs*1000)
			}
		case worse:
			if cur > m.Value*(1+pct/100) {
				fail = fmt.Sprintf("%s: %s regressed %.4f -> %.4f (+%.1f%%, gate %.0f%%)",
					exp, key(m), m.Value, cur, 100*(cur/m.Value-1), pct)
			}
		case better:
			if cur < m.Value*(1-pct/100) {
				fail = fmt.Sprintf("%s: %s regressed %.1f -> %.1f (-%.1f%%, gate %.0f%%)",
					exp, key(m), m.Value, cur, 100*(1-cur/m.Value), pct)
			}
		}
		if fail != "" {
			fails = append(fails, fail+loadPoint(m, baseCalib, freshCalib))
		}
	}
	fmt.Printf("benchgate: %s: %d gated metrics checked, %d failed\n", exp, checked, len(fails))
	return fails
}

func main() {
	baseDir := flag.String("baseline", "bench/baselines", "directory holding the committed BENCH_<exp>.json baselines")
	freshDir := flag.String("fresh", ".", "directory holding the freshly produced BENCH_<exp>.json files")
	exps := flag.String("exps", "saturation,obs", "comma-separated experiments to gate")
	pct := flag.Float64("pct", 25, "regression threshold in percent")
	flag.Parse()

	var fails []string
	for _, exp := range strings.Split(*exps, ",") {
		fails = append(fails, gateExperiment(*baseDir, *freshDir, strings.TrimSpace(exp), *pct)...)
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}
