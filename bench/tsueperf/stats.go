package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Sample statistics and the seeded input generators of the benchmark. They
// live here, not in internal/harness, so the benchmark stays frozen while the
// harness is rewritten.

// minTail is how many samples must lie beyond a percentile before the
// benchmark calls it supported (choosing-metrics guide, section 1).
const minTail = 10

// latDist is a sorted latency sample.
type latDist []time.Duration

func newLatDist(samples []time.Duration) latDist {
	d := append(latDist(nil), samples...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// p returns the nearest-rank q-quantile, and whether at least minTail
// samples lie beyond it.
func (d latDist) p(q float64) (time.Duration, bool) {
	n := len(d)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return d[i], n-1-i >= minTail
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so the
// spreads this program prints are the ones the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spreadPct is the interquartile distance as a percentage of the median.
func spreadPct(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return 100 * (q3 - q1) / math.Abs(q2)
}

// poisson yields the arrival instants of a Poisson process of the given
// rate: exponential gaps from a seeded source.
type poisson struct {
	rng  *rand.Rand
	rate float64
	at   time.Duration
}

func newPoisson(rate float64, seed int64) *poisson {
	return &poisson{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

func (a *poisson) next() time.Duration {
	a.at += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
	return a.at
}

// newZipf draws slot indices in [0, slots) with skew s, so a few hot slots
// take most of the load.
func newZipf(slots uint64, s float64, seed int64) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, slots-1)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
