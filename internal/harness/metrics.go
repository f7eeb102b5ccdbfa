package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Metric is one machine-readable measurement emitted by an experiment —
// the unit of the perf trajectory tsuebench -json persists (BENCH_*.json)
// so future changes can be compared against past runs without re-parsing
// the human tables.
type Metric struct {
	Experiment string            `json:"experiment"`
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Value      float64           `json:"value"`
}

// BenchFile is the machine-readable result envelope: tsuebench -json writes
// one BENCH_<exp>.json per invocation, so successive runs of the same
// experiment can be diffed into a perf trajectory; benchgate loads them.
type BenchFile struct {
	Experiment string   `json:"experiment"`
	Scale      string   `json:"scale"`
	Ops        int      `json:"ops"`
	FileMB     int64    `json:"file_mb"`
	WallMs     int64    `json:"wall_ms"`
	Metrics    []Metric `json:"metrics"`
}

func benchFileName(exp string) string { return "BENCH_" + exp + ".json" }

// Write stores the envelope as dir/BENCH_<exp>.json and returns the path.
func (f BenchFile) Write(dir string) (string, error) {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, benchFileName(f.Experiment))
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// LoadBenchFile reads dir/BENCH_<exp>.json.
func LoadBenchFile(dir, exp string) (*BenchFile, error) {
	path := filepath.Join(dir, benchFileName(exp))
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Sink collects metrics across experiments. A nil *Sink discards records,
// so experiments can emit unconditionally.
type Sink struct {
	Metrics []Metric
}

// Record appends one measurement (no-op on a nil sink). labels is copied.
func (s *Sink) Record(experiment, name string, labels map[string]string, value float64) {
	if s == nil {
		return
	}
	var cp map[string]string
	if len(labels) > 0 {
		cp = make(map[string]string, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
	}
	s.Metrics = append(s.Metrics, Metric{Experiment: experiment, Name: name, Labels: cp, Value: value})
}

// LatencyDist is a set of latency samples sorted once at construction, so
// a result printed at several quantiles (chaos/degraded rows call for p50,
// p95, p99, p999; the saturation sweep far more) pays for one sort total
// instead of one per quantile.
type LatencyDist struct {
	sorted []time.Duration
}

// NewLatencyDist copies and sorts samples.
func NewLatencyDist(samples []time.Duration) LatencyDist {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return LatencyDist{sorted: sorted}
}

// N returns the sample count.
func (d LatencyDist) N() int { return len(d.sorted) }

// P returns the p-quantile (0..1) by the nearest-rank method: the sample
// at rank ceil(p*n), 1-based. 0 for an empty set.
func (d LatencyDist) P(p float64) time.Duration {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.sorted[rank-1]
}
