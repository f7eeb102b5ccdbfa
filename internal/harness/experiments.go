package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tsue/internal/device"
	"tsue/internal/trace"
	"tsue/internal/update"
)

// Scale controls experiment size so the full suite runs from quick CI
// benchmarks up to paper-scale replays.
type Scale struct {
	Ops       int
	FileMB    int64
	Clients   []int // client counts swept in Fig. 5
	RSConfigs [][2]int
	// PGCounts is the placement-group sweep of the placement experiment;
	// Files is its multi-file working-set split.
	PGCounts []int
	Files    int
	// AddOSDs is how many OSDs the rebalance experiment adds (sequential
	// online transitions); RebalanceRateBps throttles its block copies
	// (0 = unthrottled).
	AddOSDs          int
	RebalanceRateBps int64
	// Sink, when non-nil, collects machine-readable metrics alongside the
	// human tables (tsuebench -json writes them to BENCH_*.json).
	Sink *Sink
}

// QuickScale finishes the whole suite in minutes (bench default).
func QuickScale() Scale {
	return Scale{
		Ops:              3000,
		FileMB:           24,
		Clients:          []int{4, 16, 64},
		RSConfigs:        [][2]int{{6, 2}, {6, 4}},
		PGCounts:         []int{2, 16, 128},
		Files:            8,
		AddOSDs:          1,
		RebalanceRateBps: 64 << 20,
	}
}

// FullScale mirrors the paper's grid (minus absolute trace length).
func FullScale() Scale {
	return Scale{
		Ops:              20000,
		FileMB:           96,
		Clients:          []int{4, 8, 16, 32, 64},
		RSConfigs:        [][2]int{{6, 2}, {12, 2}, {6, 3}, {12, 3}, {6, 4}, {12, 4}},
		PGCounts:         []int{4, 32, 256, 1024},
		Files:            16,
		AddOSDs:          2,
		RebalanceRateBps: 256 << 20,
	}
}

func (s Scale) traceProfile(name string) trace.Profile {
	ws := s.FileMB << 20
	switch name {
	case "ali":
		return trace.AliCloud(ws)
	case "ten":
		return trace.TenCloud(ws)
	default:
		p, err := trace.MSR(name, ws)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// config is where every experiment's run starts: the paper-shaped default
// at this scale's size, for one engine x trace x client count.
func (s Scale) config(eng, tr string, clients int) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Engine = eng
	cfg.Trace = s.traceProfile(tr)
	cfg.Clients = clients
	cfg.Ops = s.Ops
	cfg.FileBytes = s.FileMB << 20
	return cfg
}

// multiFileConfig is config for the placement and rebalance experiments:
// the working set split across s.Files files, and 256 KiB blocks — more
// stripes per file, so per-PG moves, the minimal-remap bound and spread
// differences across a PG sweep all have a stripe population to show in.
func (s Scale) multiFileConfig(eng string, clients, pgs int) RunConfig {
	cfg := s.config(eng, "ali", clients)
	cfg.Files = s.Files
	cfg.PGs = pgs
	cfg.BlockSize = 256 << 10
	return cfg
}

// perEngine measures one value per engine, in order, and returns the values
// by engine name together with their table cells (tab-separated, each
// printed with format).
func perEngine(engines []string, format string, measure func(eng string) (float64, error)) (map[string]float64, string, error) {
	vals := make(map[string]float64, len(engines))
	cells := make([]string, len(engines))
	for i, eng := range engines {
		v, err := measure(eng)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", eng, err)
		}
		vals[eng] = v
		cells[i] = fmt.Sprintf(format, v)
	}
	return vals, strings.Join(cells, "\t"), nil
}

// Fig5 regenerates Fig. 5 (a)-(l): aggregate update IOPS on the SSD cluster
// for every RS config x trace x client count x engine.
func Fig5(w io.Writer, s Scale) error {
	t := s.table(w, "fig5", "== Fig. 5: update throughput, SSD cluster, 16 nodes, 25Gb/s ==",
		"rs\ttrace\tclients\t"+strings.Join(update.Names(), "\t")+"\ttsue/pl\ttsue/best-other")
	for _, rsCfg := range s.RSConfigs {
		for _, tr := range []string{"ali", "ten"} {
			for _, nc := range s.Clients {
				iops, cells, err := perEngine(update.Names(), "%.0f", func(eng string) (float64, error) {
					cfg := s.config(eng, tr, nc)
					cfg.K, cfg.M = rsCfg[0], rsCfg[1]
					r, err := Run(cfg)
					if err != nil {
						return 0, err
					}
					s.Sink.Record("fig5", "iops", map[string]string{
						"engine": eng, "rs": fmt.Sprintf("%d_%d", rsCfg[0], rsCfg[1]),
						"trace": tr, "clients": fmt.Sprintf("%d", nc),
					}, r.IOPS)
					return r.IOPS, nil
				})
				if err != nil {
					return fmt.Errorf("fig5 rs(%d,%d) %s c=%d: %w", rsCfg[0], rsCfg[1], tr, nc, err)
				}
				best := 0.0
				for _, eng := range update.Names() {
					if eng != "tsue" && iops[eng] > best {
						best = iops[eng]
					}
				}
				fmt.Fprintf(t, "RS(%d,%d)\t%s\t%d\t%s\t%.2fx\t%.2fx\n", rsCfg[0], rsCfg[1], tr, nc, cells,
					ratio(iops["tsue"], iops["pl"]), ratio(iops["tsue"], best))
			}
		}
	}
	return t.Flush()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig6a regenerates Fig. 6a: TSUE aggregate IOPS over time, showing that
// recycle overhead is invisible with >= 4 log units but throttles appends
// with only 2.
func Fig6a(w io.Writer, s Scale) error {
	t := s.table(w, "fig6a", "== Fig. 6a: recycle overhead during updates (IOPS timeline) ==", "")
	for _, units := range []int{2, 4, 8} {
		cfg := s.config("tsue", "ali", 32)
		cfg.Opts.MaxUnits = units
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("fig6a units=%d: %w", units, err)
		}
		fmt.Fprintf(t, "maxUnits=%d\tIOPS=%.0f\t", units, r.IOPS)
		for _, v := range r.Timeline(10) {
			fmt.Fprintf(t, "%.0f\t", v)
		}
		fmt.Fprintln(t)
	}
	return t.Flush()
}

// Fig6b regenerates Fig. 6b: update IOPS and peak log memory as the unit
// quota per pool sweeps 2..20.
func Fig6b(w io.Writer, s Scale) error {
	t := s.table(w, "fig6b", "== Fig. 6b: memory usage vs number of log units ==",
		"maxUnits\tIOPS\tpeakLogMem(MB)\tmem% (of 16x1GB quota)")
	for _, units := range []int{2, 4, 6, 8, 12, 16, 20} {
		cfg := s.config("tsue", "ali", 32)
		cfg.Opts.MaxUnits = units
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("fig6b units=%d: %w", units, err)
		}
		quota := float64(16 << 30) // paper: <=1 GB per SSD across 16 nodes
		fmt.Fprintf(t, "%d\t%.0f\t%.1f\t%.3f%%\n", units, r.IOPS,
			float64(r.PeakMem)/(1<<20), 100*float64(r.PeakMem)/quota)
	}
	return t.Flush()
}

// fig7Step describes one cumulative optimization of the breakdown.
type fig7Step struct {
	name  string
	apply func(o *update.Options)
}

func fig7Steps() []fig7Step {
	return []fig7Step{
		{"baseline", func(o *update.Options) {
			o.NoDeltaLog = true
			o.NoDataLocality = true
			o.NoParityLocality = true
			o.NoLogPool = true
			o.Pools = 1
		}},
		{"O1 +data locality", func(o *update.Options) { o.NoDataLocality = false }},
		{"O2 +parity locality", func(o *update.Options) { o.NoParityLocality = false }},
		{"O3 +log pool", func(o *update.Options) { o.NoLogPool = false }},
		{"O4 +4 pools", func(o *update.Options) { o.Pools = 4 }},
		{"O5 +delta log", func(o *update.Options) { o.NoDeltaLog = false }},
	}
}

// Fig7 regenerates Fig. 7: the contribution breakdown — cumulative TSUE
// optimizations O1..O5 over the two-log baseline, per trace and RS config.
func Fig7(w io.Writer, s Scale) error {
	t := s.table(w, "fig7", "== Fig. 7: breakdown of update throughput (cumulative O1..O5) ==", "")
	fmt.Fprint(t, "trace/rs\t")
	for _, st := range fig7Steps() {
		fmt.Fprintf(t, "%s\t", st.name)
	}
	fmt.Fprintln(t)
	rsSet := [][2]int{{6, 2}, {6, 3}, {6, 4}}
	for _, tr := range []string{"ali", "ten"} {
		for _, rsCfg := range rsSet {
			fmt.Fprintf(t, "%s RS(%d,%d)\t", tr, rsCfg[0], rsCfg[1])
			opts := DefaultRunConfig().Opts
			for _, st := range fig7Steps() {
				st.apply(&opts)
				cfg := s.config("tsue", tr, 32)
				cfg.K, cfg.M = rsCfg[0], rsCfg[1]
				cfg.Opts = opts
				r, err := Run(cfg)
				if err != nil {
					return fmt.Errorf("fig7 %s %s: %w", tr, st.name, err)
				}
				fmt.Fprintf(t, "%.0f\t", r.IOPS)
			}
			fmt.Fprintln(t)
		}
	}
	return t.Flush()
}

// Table1 regenerates Table 1: storage workload and network traffic per
// engine replaying Ten-Cloud under RS(6,4), plus the SSD-wear columns
// backing the paper's lifespan claim.
func Table1(w io.Writer, s Scale) error {
	t := s.table(w, "table1", "== Table 1: storage workload and network traffic (Ten-Cloud, RS(6,4)) ==",
		"method\tR/W ops\tR/W vol(MB)\toverwrites\tovw vol(MB)\tnet(MB)\tNAND writes(MB)\terases\tlifespan vs tsue")
	runs := map[string]*Result{}
	for _, eng := range update.Names() {
		r, err := Run(s.config(eng, "ten", 32))
		if err != nil {
			return fmt.Errorf("table1 %s: %w", eng, err)
		}
		runs[eng] = r
	}
	tsueNand := runs["tsue"].Device.NandWriteBytes
	for _, eng := range update.Names() {
		// Wear is NAND bytes actually programmed (host + RMW + GC); the
		// relative lifespan is its inverse ratio.
		d := runs[eng].Device
		life := "1.00x"
		if tsueNand > 0 {
			life = fmt.Sprintf("%.2fx", float64(d.NandWriteBytes)/float64(tsueNand))
		}
		fmt.Fprintf(t, "%s\t%d\t%.0f\t%d\t%.0f\t%.0f\t%.0f\t%d\t%s\n",
			eng,
			d.ReadOps+d.WriteOps,
			float64(d.ReadBytes+d.WriteBytes)/(1<<20),
			d.OverwriteOps,
			float64(d.OverwriteBytes)/(1<<20),
			float64(runs[eng].Net.BytesSent)/(1<<20),
			float64(d.NandWriteBytes)/(1<<20),
			d.Erases,
			life)
	}
	return t.Flush()
}

// Table2 regenerates Table 2: mean time updated data resides in each log
// layer (append / buffer / recycle) under RS(12,4).
func Table2(w io.Writer, s Scale) error {
	t := s.table(w, "table2", "== Table 2: time (us) data resides in memory, RS(12,4) ==",
		"trace\tlayer\tappend(us)\tbuffer(us)\trecycle(us)\ttotal(us)")
	for _, tr := range []string{"ali", "ten"} {
		cfg := s.config("tsue", tr, 32)
		cfg.K, cfg.M = 12, 4
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("table2 %s: %w", tr, err)
		}
		var total time.Duration
		for _, layer := range []string{"data", "delta", "parity"} {
			st, ok := r.Residency[layer]
			if !ok {
				continue
			}
			total += st.MeanAppend() + st.MeanBuffer() + st.MeanRecycle()
			fmt.Fprintf(t, "%s\t%s\t%d\t%d\t%d\t\n", tr, layer,
				st.MeanAppend().Microseconds(), st.MeanBuffer().Microseconds(), st.MeanRecycle().Microseconds())
		}
		fmt.Fprintf(t, "%s\tTOTAL\t\t\t\t%d\n", tr, total.Microseconds())
	}
	return t.Flush()
}

// hddEngines is the Fig. 8 comparison set (the paper omits CoRD on HDDs).
func hddEngines() []string { return []string{"fo", "pl", "plr", "parix", "tsue"} }

func hddRun(s Scale, vol, eng string, unitSize int64) RunConfig {
	cfg := s.config(eng, vol, 16)
	cfg.Device = device.HDD
	// Paper §5.4: on HDDs, DeltaLogs are disabled, the DataLog keeps 3
	// copies, and each HDD gets one log pool. The unit size maps the
	// paper's 16 MiB-unit steady state onto a seconds-long run: Fig. 8a
	// (sustained update throughput) uses units large relative to the replay
	// so recycling is amortized as at paper scale, while Fig. 8b (recovery
	// after updates stop) uses small units so the log residual at stop is
	// proportionally as small as after the paper's 3-minute runs.
	cfg.Opts.NoDeltaLog = true
	cfg.Opts.Copies = 3
	cfg.Opts.UnitSize = unitSize
	cfg.Opts.CordBufferSize = unitSize
	cfg.Opts.Pools = 1 // paper: one log pool per HDD device
	// HDD runs are slow per-op; keep the op count proportionate.
	cfg.Ops = max(s.Ops/4, 500)
	return cfg
}

// Fig8a regenerates Fig. 8a: HDD-cluster update throughput per MSR volume.
func Fig8a(w io.Writer, s Scale) error {
	t := s.table(w, "fig8a", "== Fig. 8a: update throughput with HDDs (MSR volumes, RS(6,4)) ==",
		"volume\tfo\tpl\tplr\tparix\ttsue\ttsue/parix")
	for _, vol := range trace.MSRVolumes() {
		iops, cells, err := perEngine(hddEngines(), "%.0f", func(eng string) (float64, error) {
			r, err := Run(hddRun(s, vol, eng, 1<<20))
			if err != nil {
				return 0, err
			}
			return r.IOPS, nil
		})
		if err != nil {
			return fmt.Errorf("fig8a %s: %w", vol, err)
		}
		fmt.Fprintf(t, "%s\t%s\t%.2fx\n", vol, cells, ratio(iops["tsue"], iops["parix"]))
	}
	return t.Flush()
}

// Fig8b regenerates Fig. 8b: recovery bandwidth after an update run on the
// HDD cluster. Recovery must merge outstanding logs first (the paper's
// consistency requirement), so lazy-log schemes pay their deferred debt
// here while TSUE's real-time recycle leaves recovery nearly log-free.
func Fig8b(w io.Writer, s Scale) error {
	t := s.table(w, "fig8b", "== Fig. 8b: recovery bandwidth with HDDs (MSR volumes, RS(6,4)) ==",
		"volume\tfo(MB/s)\tpl\tplr\tparix\ttsue\ttsue/pl")
	for _, vol := range trace.MSRVolumes() {
		bw, cells, err := perEngine(hddEngines(), "%.1f", func(eng string) (float64, error) {
			r, err := RunRecovery(hddRun(s, vol, eng, 64<<10))
			if err != nil {
				return 0, err
			}
			return r.BandwidthBps / (1 << 20), nil
		})
		if err != nil {
			return fmt.Errorf("fig8b %s: %w", vol, err)
		}
		fmt.Fprintf(t, "%s\t%s\t%.2fx\n", vol, cells, ratio(bw["tsue"], bw["pl"]))
	}
	return t.Flush()
}

// Sweep regenerates the batched-recycle sweep (beyond the paper): TSUE
// update IOPS, device work and recycle timing as the per-pool recycler
// batch size varies. Batching merges extents across sealed units before the
// single read-modify-write, so the interesting columns are the overwrite
// ops actually reaching the device and the mean per-extent recycle time.
func Sweep(w io.Writer, s Scale) error {
	t := s.table(w, "sweep", "== Sweep: recycler batch size (TSUE, SSD, Ali-Cloud, RS(6,4)) ==",
		"batch\tIOPS\tovw ops\tovw vol(MB)\tnet(MB)\tpeakLogMem(MB)\trecycle(us)")
	for _, batch := range []int{1, 2, 4, 8} {
		cfg := s.config("tsue", "ali", 32)
		cfg.Opts.RecycleBatch = batch
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("sweep batch=%d: %w", batch, err)
		}
		// True per-extent mean across all three layers (comparable to
		// Table 2's per-layer recycle columns).
		var recTime time.Duration
		var recN int64
		for _, st := range r.Residency {
			recTime += st.RecycleTime
			recN += st.RecycleN
		}
		var rec time.Duration
		if recN > 0 {
			rec = recTime / time.Duration(recN)
		}
		fmt.Fprintf(t, "%d\t%.0f\t%d\t%.1f\t%.1f\t%.1f\t%d\n",
			batch, r.IOPS,
			r.Device.OverwriteOps, float64(r.Device.OverwriteBytes)/(1<<20),
			float64(r.Net.BytesSent)/(1<<20),
			float64(r.PeakMem)/(1<<20),
			rec.Microseconds())
	}
	return t.Flush()
}

// experiments is the one experiment table: CLI name and function, the
// paper's figures and tables first (in paper order), then the beyond-paper
// studies. inAll marks the members of the "all" suite.
var experiments = []struct {
	name  string
	fn    func(io.Writer, Scale) error
	inAll bool
}{
	{"fig5", Fig5, true}, {"fig6a", Fig6a, true}, {"fig6b", Fig6b, true}, {"fig7", Fig7, true},
	{"table1", Table1, true}, {"table2", Table2, true}, {"fig8a", Fig8a, true}, {"fig8b", Fig8b, true},
	{"sweep", Sweep, true}, {"degraded", Degraded, true}, {"placement", Placement, true},
	{"rebalance", Rebalance, true}, {"rebalance-kill", RebalanceKill, false},
	{"degraded-multikill", DegradedMultiKill, false}, {"chaos", Chaos, false},
	{"saturation", Saturation, false}, {"obs", Obs, false},
}

// All runs the paper's experiments in paper order, then the single-fault
// studies (sweep, degraded, placement, rebalance). The compound-fault and
// open-loop experiments — rebalance-kill, degraded-multikill, chaos,
// saturation, obs — are not part of it; run them by name.
func All(w io.Writer, s Scale) error {
	for _, e := range experiments {
		if !e.inAll {
			continue
		}
		if err := e.fn(w, s); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Experiments maps CLI names to experiment functions, "all" included.
func Experiments() map[string]func(io.Writer, Scale) error {
	m := map[string]func(io.Writer, Scale) error{"all": All}
	for _, e := range experiments {
		m[e.name] = e.fn
	}
	return m
}
