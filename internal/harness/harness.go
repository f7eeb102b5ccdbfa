// Package harness builds simulated ECFS clusters, replays traces against
// them, and regenerates every table and figure of the TSUE paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the measured shapes next to the paper's.
package harness

import (
	"fmt"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/device"
	"tsue/internal/netsim"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// RunConfig describes one trace-replay run.
type RunConfig struct {
	Engine    string
	Trace     trace.Profile
	K, M      int
	OSDs      int
	Clients   int
	Ops       int   // total ops across all clients
	FileBytes int64 // total preloaded volume == trace working set
	BlockSize int64
	Device    device.Kind
	Opts      update.Options
	Seed      int64
	// Files splits the working set across this many files (>= 1; Validate
	// rejects zero). Each client works against file (client index mod
	// Files), so stripes — and with them recovery fan-out, surrogate load
	// and degraded-journal pressure — spread across placement groups the
	// way a multi-tenant cluster's would.
	Files int
	// PGs is the cluster's placement-group count (>= 1; Validate rejects
	// zero — DefaultRunConfig carries the 8-per-OSD default explicitly).
	PGs int
	// Hedge > 0 arms hedged degraded reads (cluster.Config.HedgeDelay):
	// on-the-fly reconstructions launch a second attempt from the
	// alternate survivor set after this deadline. The chaos experiment's
	// straggler scenarios set it; everything else leaves it off.
	Hedge time.Duration
	// Admission, when non-nil, installs MDS admission control
	// (cluster.Config.Admission): every client op (one Read or Update,
	// however many blocks it spans) first asks the MDS for one slot, and
	// overload bounces surface as cluster.ErrOverload. The
	// saturation experiment sets it; closed-loop replays leave it nil
	// (zero overhead — no admission round trip at all).
	Admission cluster.AdmissionPolicy
	// TraceSample, when > 0, traces every n-th foreground op end-to-end
	// (cluster.Config.TraceSample). Tracing never perturbs virtual time —
	// span context rides every wire message whether sampled or not — so any
	// run can turn it on without changing its measurements. The obs
	// experiment sets 1 (trace everything); everything else leaves it 0.
	TraceSample int
}

// DefaultRunConfig returns the paper-shaped SSD configuration scaled to a
// tractable working set.
func DefaultRunConfig() RunConfig {
	opts := update.DefaultOptions()
	opts.UnitSize = 1 << 20          // scale the 16 MiB units to the scaled trace volume
	opts.RecycleBatch = 1            // paper fidelity: the paper recycles unit-by-unit; the Sweep experiment opts into batching
	opts.RecycleThreshold = 64 << 20 // PL/PARIX lazy logs defer recycling beyond the run (paper: "indefinitely delayed")
	opts.PLRReserve = 8 << 10
	opts.CordBufferSize = 1 << 20
	return RunConfig{
		Engine:    "tsue",
		K:         6,
		M:         4,
		OSDs:      16,
		Clients:   16,
		Ops:       6000,
		FileBytes: 48 << 20,
		BlockSize: 1 << 20,
		Device:    device.SSD,
		Opts:      opts,
		Seed:      1,
		Files:     1,
		PGs:       128,
	}
}

// Validate rejects nonsensical run parameters with a clear error instead
// of a downstream panic or a silent default. Everything that counts
// something must be positive; engine option counts must not be negative.
func (cfg RunConfig) Validate() error {
	switch {
	case cfg.Engine == "":
		return fmt.Errorf("harness: Engine must be set")
	case cfg.K < 1 || cfg.M < 1:
		return fmt.Errorf("harness: RS(%d,%d) needs K >= 1 and M >= 1", cfg.K, cfg.M)
	case cfg.OSDs < cfg.K+cfg.M:
		return fmt.Errorf("harness: %d OSDs cannot host RS(%d,%d) stripes", cfg.OSDs, cfg.K, cfg.M)
	case cfg.Clients < 1:
		return fmt.Errorf("harness: Clients must be >= 1, got %d", cfg.Clients)
	case cfg.Ops < 1:
		return fmt.Errorf("harness: Ops must be >= 1, got %d", cfg.Ops)
	case cfg.FileBytes < 1:
		return fmt.Errorf("harness: FileBytes must be >= 1, got %d", cfg.FileBytes)
	case cfg.BlockSize < 1:
		return fmt.Errorf("harness: BlockSize must be >= 1, got %d", cfg.BlockSize)
	case cfg.Files < 1:
		return fmt.Errorf("harness: Files must be >= 1, got %d", cfg.Files)
	case cfg.PGs < 1:
		return fmt.Errorf("harness: PGs must be >= 1, got %d", cfg.PGs)
	case cfg.Opts.RecycleBatch < 0:
		return fmt.Errorf("harness: RecycleBatch must not be negative, got %d", cfg.Opts.RecycleBatch)
	case cfg.Opts.Pools < 0 || cfg.Opts.MaxUnits < 0 || cfg.Opts.Copies < 0:
		return fmt.Errorf("harness: engine pool/unit/copy counts must not be negative")
	}
	return nil
}

// Result captures one run's measurements.
type Result struct {
	Cfg         RunConfig
	Ops         int
	Elapsed     time.Duration
	IOPS        float64
	Device      device.Stats
	Net         netsim.Stats
	PeakMem     int64
	FinalMem    int64
	Residency   map[string]update.LayerStats
	Completions []time.Duration // per-op completion times (relative to start)
	Stripes     int             // scrubbed stripes
}

// Timeline buckets completions into n equal intervals and returns ops/sec
// per bucket.
func (r *Result) Timeline(n int) []float64 {
	if n <= 0 || r.Elapsed <= 0 {
		return nil
	}
	out := make([]float64, n)
	per := r.Elapsed / time.Duration(n)
	if per <= 0 {
		return out
	}
	for _, t := range r.Completions {
		i := int(t / per)
		if i >= n {
			i = n - 1
		}
		out[i]++
	}
	for i := range out {
		out[i] /= per.Seconds()
	}
	return out
}

// buildCluster translates a RunConfig into a live simulated cluster.
func buildCluster(cfg RunConfig) (*cluster.Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg := cluster.DefaultConfig()
	ccfg.OSDs = cfg.OSDs
	ccfg.K, ccfg.M = cfg.K, cfg.M
	ccfg.BlockSize = cfg.BlockSize
	ccfg.Engine = cfg.Engine
	ccfg.EngineOpts = cfg.Opts
	ccfg.HedgeDelay = cfg.Hedge
	ccfg.Admission = cfg.Admission
	ccfg.TraceSample = cfg.TraceSample
	ccfg.DeviceKind = cfg.Device
	if cfg.Device == device.HDD {
		ccfg.DeviceParams = device.HDDParams()
		ccfg.NetParams = netsim.Infiniband40G()
	} else {
		ccfg.DeviceParams = device.SSDParams()
		// Size the FTL so update churn forces garbage collection, with headroom
		// for the bounded circular log regions (a too-small device makes the
		// GC thrash on live log space, which no real deployment would size).
		perOSD := cfg.FileBytes * int64(cfg.K+cfg.M) / int64(cfg.K) / int64(cfg.OSDs)
		ccfg.DeviceParams.Capacity = perOSD*2 + 512<<20
		ccfg.DeviceParams.PageSize = 16 << 10
		ccfg.DeviceParams.BlockPages = 64
	}
	ccfg.MatrixKind = rs.Vandermonde
	ccfg.PGs = cfg.PGs
	return cluster.New(ccfg)
}

// Run executes one closed-loop trace replay, then drains every log — so
// each scheme is charged its full merge debt, as the paper's Table 1 replays
// the trace to completion with logs persisted and recycled — and verifies
// the stripe-consistency invariant before returning.
func Run(cfg RunConfig) (*Result, error) {
	res := &Result{Cfg: cfg}
	err := runSession(cfg, func(s *session, p *sim.Proc) error {
		if err := s.replay(p, res); err != nil {
			return err
		}
		var err error
		res.Stripes, err = s.finish(p)
		res.Device = s.c.DeviceStats()
		res.Net = s.c.Fabric.TotalStats()
		res.Residency = s.c.Residency()
		return err
	})
	if err != nil {
		return nil, err
	}
	if res.Elapsed > 0 {
		res.IOPS = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res, nil
}

// RunRecovery replays the trace WITHOUT draining, then fails one OSD and
// measures recovery bandwidth including the forced log merge (Fig. 8b).
func RunRecovery(cfg RunConfig) (*cluster.RecoveryReport, error) {
	var rep *cluster.RecoveryReport
	err := runSession(cfg, func(s *session, p *sim.Proc) error {
		if err := s.replay(p, &Result{Cfg: cfg}); err != nil {
			return err
		}
		// Fail an OSD chosen deterministically; recovery drains first, per
		// the paper's consistency protocol, so the run ends with the scrub
		// alone.
		victim := wire.NodeID(cfg.Seed%int64(cfg.OSDs) + 1)
		var err error
		if rep, err = s.c.Recover(p, victim, 8, cluster.RecoverDrainFirst, s.admin); err != nil {
			return err
		}
		_, err = s.scrub()
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// replay runs the closed loop: cfg.Clients clients, each issuing its share
// of cfg.Ops back to back against its file, every completion recorded in
// res.
func (s *session) replay(p *sim.Proc, res *Result) error {
	start := p.Now()
	opsPer := max(s.cfg.Ops/s.cfg.Clients, 1)
	wg := sim.NewWaitGroup(s.c.Env)
	wg.Add(s.cfg.Clients)
	var clientErr error
	for ci := 0; ci < s.cfg.Clients; ci++ {
		ci := ci
		cl := s.c.NewClient()
		ino := s.inos[ci%len(s.inos)]
		gen := s.generator(s.cfg.Seed + int64(ci)*7919)
		s.c.Env.Go(fmt.Sprintf("client%d", ci), func(cp *sim.Proc) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				if err := s.issue(cp, cl, ino, gen.Next()); err != nil {
					if clientErr == nil {
						clientErr = fmt.Errorf("client %d op %d: %w", ci, j, err)
					}
					return
				}
				t := cp.Now() - start
				res.Completions = append(res.Completions, t)
				res.Elapsed = max(res.Elapsed, t)
			}
		})
	}
	wg.Wait(p)
	if clientErr != nil {
		return clientErr
	}
	res.Ops = len(res.Completions)
	res.PeakMem = s.c.PeakMemBytes()
	res.FinalMem = s.c.MemBytes()
	return nil
}
