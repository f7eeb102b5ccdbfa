package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// -compare a.jsonl b.jsonl holds B against A with the benchmark's own bounds.
// Each file is what -json wrote over one or more runs. Per workload and
// end-to-end metric the two medians are compared:
//
//	regression  B's median is worse than A's by more than the metric's bound
//	unresolved  the runs of one side spread (q3 - q1) wider than the bound,
//	            so a difference of that size cannot be told from noise
//	ok          otherwise
//
// A regression makes the exit code 1. An unresolved metric is reported as
// such, never as unchanged.

// loadRuns reads a -json file into end-to-end values by workload and metric.
// With several runs of a workload the values are the runs' medians; with one
// run, a host-clock metric contributes its iterations' quartiles instead, so
// that a single run still carries a spread.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byWorkload[rep.Workload] = append(byWorkload[rep.Workload], rep)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for wl, reps := range byWorkload {
		out[wl] = map[string][]float64{}
		for _, m := range endToEnd {
			for _, rep := range reps {
				s, ok := rep.EndToEnd[m.name]
				if !ok {
					return nil, fmt.Errorf("%s: a run of %s has no %s", path, wl, m.name)
				}
				if len(reps) == 1 && s.N > 1 && m.clock == hostClock {
					out[wl][m.name] = []float64{s.Q1, s.Value, s.Q3}
				} else {
					out[wl][m.name] = append(out[wl][m.name], s.Value)
				}
			}
		}
		out[wl]["error_rate"] = nil
		for _, rep := range reps {
			out[wl]["error_rate"] = append(out[wl]["error_rate"], rep.ErrorRate)
		}
	}
	return out, nil
}

// compareFiles prints the comparison and reports whether B holds against A.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tA median\tB median\tB vs A\tBOUND\tA spread\tB spread\tVERDICT")
	regressions, unresolved, compared := 0, 0, 0
	for _, wl := range workloads {
		va, vb := a[wl.name], b[wl.name]
		if va == nil || vb == nil {
			if va != nil || vb != nil {
				return false, fmt.Errorf("workload %s is in only one of the two files", wl.name)
			}
			continue
		}
		for _, m := range endToEnd {
			ma, mb := median(va[m.name]), median(vb[m.name])
			// worse is how far B's median moved in the bad direction, as a
			// share of A's.
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb := spreadPct(va[m.name])/100, spreadPct(vb[m.name])/100
			verdict := "ok"
			switch {
			case sa > m.bound || sb > m.bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSION"
				regressions++
			}
			compared++
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				wl.name, m.name, ma, mb, 100*(mb-ma)/ma, 100*m.bound, 100*sa, 100*sb, verdict)
		}
		// error_rate has bound 0: any failed, lost or mismatched op in B is
		// a regression.
		if eb := median(vb["error_rate"]); eb > median(va["error_rate"]) {
			fmt.Fprintf(tw, "%s\terror_rate\t%g\t%g\t\t0%%\t\t\tREGRESSION\n", wl.name, median(va["error_rate"]), eb)
			regressions++
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if compared == 0 {
		return false, fmt.Errorf("the two files share no workload")
	}
	fmt.Fprintf(w, "%d compared, %d regressions, %d unresolved\n", compared, regressions, unresolved)
	return regressions == 0, nil
}
