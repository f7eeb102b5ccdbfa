package main

import (
	"strings"
	"testing"

	"tsue/internal/harness"
)

// writeRun writes one synthetic run (saturation and obs files) to a fresh
// directory: tsue calibrated at calib, with the given p99s at its 0.75x
// saturation point and 0.80x obs point.
func writeRun(t *testing.T, calib, satP99, obsP99 float64) string {
	t.Helper()
	dir := t.TempDir()
	tsue := func(load string) map[string]string {
		l := map[string]string{"engine": "tsue"}
		if load != "" {
			l["load"] = load
		}
		return l
	}
	files := []harness.BenchFile{
		{Experiment: "saturation", Scale: "quick", Ops: 3000, Metrics: []harness.Metric{
			{Name: "calib_iops", Labels: tsue(""), Value: calib},
			{Name: "lat_p99_ms", Labels: tsue("0.75x"), Value: satP99},
			{Name: "max_sustainable_iops", Labels: tsue(""), Value: 0.9 * calib},
		}},
		{Experiment: "obs", Scale: "quick", Ops: 3000, Metrics: []harness.Metric{
			{Name: "p99_ms", Labels: tsue("0.80x"), Value: obsP99},
		}},
	}
	for _, f := range files {
		if _, err := f.Write(dir); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGateShowsMovedLoadPoint: a failing relative-load row names both
// runs' offered rate and calibration, so a faster engine gated at a higher
// absolute rate is visible as such.
func TestGateShowsMovedLoadPoint(t *testing.T) {
	base := writeRun(t, 1000, 1.0, 2.0)
	fresh := writeRun(t, 1200, 1.5, 3.0)
	sat := gateExperiment(base, fresh, "saturation", 25)
	if len(sat) != 1 {
		t.Fatalf("saturation: %d failures, want 1: %q", len(sat), sat)
	}
	if want := "load point: offered_iops 750 -> 900, calib_iops 1000 -> 1200"; !strings.Contains(sat[0], want) {
		t.Errorf("saturation failure %q lacks %q", sat[0], want)
	}
	obs := gateExperiment(base, fresh, "obs", 25)
	if len(obs) != 1 {
		t.Fatalf("obs: %d failures, want 1: %q", len(obs), obs)
	}
	if want := "load point: offered_iops 800 -> 960, calib_iops 1000 -> 1200"; !strings.Contains(obs[0], want) {
		t.Errorf("obs failure %q lacks %q", obs[0], want)
	}
}

// TestGatePassesClean: runs within the threshold pass with no failures.
func TestGatePassesClean(t *testing.T) {
	base := writeRun(t, 1000, 1.0, 2.0)
	fresh := writeRun(t, 1010, 1.1, 2.1)
	for _, exp := range []string{"saturation", "obs"} {
		if fails := gateExperiment(base, fresh, exp, 25); len(fails) != 0 {
			t.Errorf("%s: unexpected failures %q", exp, fails)
		}
	}
}
