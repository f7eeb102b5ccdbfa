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
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
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
		switch {
		case worse && m.Value < latFloorMs:
			if cur > latFloorMs {
				fails = append(fails, fmt.Sprintf("%s: %s rose %.4f -> %.4f ms (above the %.0fµs sub-floor ceiling)",
					exp, key(m), m.Value, cur, latFloorMs*1000))
			}
		case worse:
			if cur > m.Value*(1+pct/100) {
				fails = append(fails, fmt.Sprintf("%s: %s regressed %.4f -> %.4f (+%.1f%%, gate %.0f%%)",
					exp, key(m), m.Value, cur, 100*(cur/m.Value-1), pct))
			}
		case better:
			if cur < m.Value*(1-pct/100) {
				fails = append(fails, fmt.Sprintf("%s: %s regressed %.1f -> %.1f (-%.1f%%, gate %.0f%%)",
					exp, key(m), m.Value, cur, 100*(1-cur/m.Value), pct))
			}
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
