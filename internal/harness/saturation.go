package harness

import (
	"fmt"
	"io"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/update"
)

// satFractions is the offered-load grid, as fractions of each engine's
// closed-loop calibration throughput: two points below the knee, one at
// it, two past it.
var satFractions = []float64{0.25, 0.5, 0.75, 1.0, 1.25}

// satSustainFrac is the goodput bar for "sustainable": a point counts only
// if achieved throughput is at least this fraction of offered and no op
// was lost to retry exhaustion.
const satSustainFrac = 0.9

// loadPointConfig is the open-loop experiments' run: Ali-Cloud, with a
// third of the scale's ops (at least 300) per load point.
func (s Scale) loadPointConfig(eng string) RunConfig {
	cfg := s.config(eng, "ali", 16)
	cfg.Ops = max(s.Ops/3, 300)
	return cfg
}

// calibrate returns the engine's loadPointConfig and its closed-loop
// throughput: the closed-loop replay self-throttles to what the cluster
// sustains at this concurrency, which anchors the offered-load grid.
func (s Scale) calibrate(exp, eng string) (RunConfig, float64, error) {
	cfg := s.loadPointConfig(eng)
	calib, err := Run(cfg)
	if err != nil {
		return cfg, 0, fmt.Errorf("%s %s calibration: %w", exp, eng, err)
	}
	if calib.IOPS <= 0 {
		return cfg, 0, fmt.Errorf("%s %s: calibration measured zero IOPS", exp, eng)
	}
	return cfg, calib.IOPS, nil
}

// offerLoad runs one open-loop load point: ops Poisson arrivals at offered
// ops/sec, Zipf-skewed 4 KiB slots, and depth-based MDS admission — past
// the knee the in-flight count balloons, and the MDS bounces arrivals
// instead of letting the cluster queue without bound. sample, when
// non-nil, polls the cluster every obsNICPeriod.
func offerLoad(cfg RunConfig, offered float64, ops int, sample func(*cluster.Cluster, time.Duration)) (*OpenLoopResult, error) {
	cfg.Admission = &cluster.TokenBucket{MaxInflight: 4 * cfg.Clients}
	return RunOpenLoop(cfg, OpenLoopConfig{
		Arrivals: NewPoissonArrivals(offered, ops, cfg.Seed),
		Zipf:     NewZipfPicker(uint64(cfg.FileBytes/(4<<10)), 1.1, 1, cfg.Seed+1),
		Sample:   sample,
	})
}

// Saturation sweeps open-loop offered load per engine (beyond the paper's
// closed-loop evaluation): Poisson arrivals at a grid of rates calibrated
// to each engine's closed-loop throughput, Zipf-skewed offsets, and MDS
// admission control pushing back past the knee. It reports the latency
// percentiles vs offered load and each engine's max sustainable IOPS —
// the open-loop numbers a capacity planner would actually quote.
func Saturation(w io.Writer, s Scale) error {
	t := s.table(w, "saturation", "== Saturation: open-loop offered-load sweep (Poisson arrivals, Zipf offsets, MDS admission) ==",
		"engine\toffered(ops/s)\tachieved\tp50(ms)\tp95(ms)\tp99(ms)\trejected\tlost")
	for _, eng := range update.Names() {
		cfg, calibIOPS, err := s.calibrate("saturation", eng)
		if err != nil {
			return err
		}
		s.Sink.Record("saturation", "calib_iops", map[string]string{"engine": eng}, calibIOPS)

		maxSustain := 0.0
		for _, frac := range satFractions {
			offered := calibIOPS * frac
			res, err := offerLoad(cfg, offered, cfg.Ops, nil)
			if err != nil {
				return fmt.Errorf("saturation %s %.2fx: %w", eng, frac, err)
			}
			dist := NewLatencyDist(res.Lats)
			t.row(map[string]string{"engine": eng, "load": fmt.Sprintf("%.2fx", frac)}, eng, []cell{
				{"offered_iops", "%.0f", offered},
				{"achieved_iops", "%.0f", res.Achieved},
				{"lat_p50_ms", "%.2f", ms(dist.P(0.50))},
				{"lat_p95_ms", "%.2f", ms(dist.P(0.95))},
				{"lat_p99_ms", "%.2f", ms(dist.P(0.99))},
				{"rejected", "%d", res.Rejections},
				{"lost", "%d", res.Lost},
			})
			if res.Lost == 0 && res.Achieved >= satSustainFrac*offered && res.Achieved > maxSustain {
				maxSustain = res.Achieved
			}
		}
		fmt.Fprintf(t, "%s\tmax sustainable\t%.0f\t\t\t\t\t\n", eng, maxSustain)
		s.Sink.Record("saturation", "max_sustainable_iops", map[string]string{"engine": eng}, maxSustain)
	}
	return t.Flush()
}
