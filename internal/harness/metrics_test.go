package harness

import (
	"testing"
	"time"
)

// lat builds a millisecond sample slice in arbitrary order to prove
// sorting happens inside the quantile code.
func lat(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		name    string
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		// n=1: every quantile is the single sample.
		{"n1 p50", lat(7), 0.50, 7 * time.Millisecond},
		{"n1 p99", lat(7), 0.99, 7 * time.Millisecond},
		// n=2: rank ceil(0.5*2)=1 → first; anything above 0.5 → second.
		{"n2 p50", lat(20, 10), 0.50, 10 * time.Millisecond},
		{"n2 p51", lat(20, 10), 0.51, 20 * time.Millisecond},
		{"n2 p99", lat(20, 10), 0.99, 20 * time.Millisecond},
		// n=3: ceil(0.5*3)=2, ceil(0.99*3)=3.
		{"n3 p50", lat(30, 10, 20), 0.50, 20 * time.Millisecond},
		{"n3 p99", lat(30, 10, 20), 0.99, 30 * time.Millisecond},
		// n=5: ceil(0.5*5)=3, ceil(0.95*5)=5, ceil(0.2*5)=1.
		{"n5 p20", lat(5, 4, 3, 2, 1), 0.20, 1 * time.Millisecond},
		{"n5 p50", lat(5, 4, 3, 2, 1), 0.50, 3 * time.Millisecond},
		{"n5 p95", lat(5, 4, 3, 2, 1), 0.95, 5 * time.Millisecond},
		// n=10: ceil(0.5*10)=5, ceil(0.95*10)=10, ceil(0.99*10)=10, and the
		// case the old int(p*n+0.5)-1 rounding got wrong: ceil(0.44*10)=5
		// (old code indexed rank 4).
		{"n10 p44", lat(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 0.44, 5 * time.Millisecond},
		{"n10 p50", lat(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 0.50, 5 * time.Millisecond},
		{"n10 p90", lat(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 0.90, 9 * time.Millisecond},
		{"n10 p95", lat(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 0.95, 10 * time.Millisecond},
		{"n10 p99", lat(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 0.99, 10 * time.Millisecond},
		// Degenerate p values clamp instead of indexing out of range.
		{"p0 clamps", lat(3, 1, 2), 0.0, 1 * time.Millisecond},
		{"p1 exact", lat(3, 1, 2), 1.0, 3 * time.Millisecond},
		// Empty set.
		{"empty", nil, 0.99, 0},
	}
	for _, tc := range cases {
		if got := NewLatencyDist(tc.samples).P(tc.p); got != tc.want {
			t.Errorf("%s: percentile=%v, want %v", tc.name, got, tc.want)
		}
		d := NewLatencyDist(tc.samples)
		if got := d.P(tc.p); got != tc.want {
			t.Errorf("%s: LatencyDist.P=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLatencyDistDoesNotMutateInput(t *testing.T) {
	in := lat(3, 1, 2)
	_ = NewLatencyDist(in)
	if in[0] != 3*time.Millisecond || in[1] != 1*time.Millisecond || in[2] != 2*time.Millisecond {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestLatencyDistN(t *testing.T) {
	if n := NewLatencyDist(lat(1, 2, 3)).N(); n != 3 {
		t.Fatalf("N=%d", n)
	}
	if n := NewLatencyDist(nil).N(); n != 0 {
		t.Fatalf("N=%d", n)
	}
}
