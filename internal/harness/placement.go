package harness

// The placement experiment (beyond the paper, after Rashmi et al.'s
// observation that recovery network cost is dominated by how reconstruction
// reads fan out across the cluster, and Kermarrec et al.'s result that
// placement policy directly shifts maintenance traffic): run a multi-file
// foreground update workload, fail the most-loaded OSD, and recover it
// under interleaved mode, sweeping the placement-group count. With few PGs
// the dead node's stripes share a handful of peer sets, so reconstruction
// hammers few sources and one or two surrogates absorb the whole degraded
// journal; with many PGs the same loss fans out across the cluster.

import (
	"fmt"
	"io"
	"math"
	"sort"

	"tsue/internal/cluster"
	"tsue/internal/wire"
)

// PlacementResult captures one placement run's spread measurements.
type PlacementResult struct {
	Cfg    RunConfig
	Report *cluster.RecoveryReport
	// SourceBytes is reconstruction bytes read per source OSD during the
	// recovery window; Targets is rebuilt blocks per destination OSD;
	// JournalBytes is surrogate-journal bytes appended per OSD.
	SourceBytes  map[wire.NodeID]int64
	Targets      map[wire.NodeID]int
	JournalBytes map[wire.NodeID]int64
	// DipPct is the foreground IOPS dip during recovery.
	DipPct float64
	// Stripes is the number of stripes scrubbed clean after the run.
	Stripes int
}

// FanOut is the number of distinct OSDs that served reconstruction reads.
func (r *PlacementResult) FanOut() int { return len(r.SourceBytes) }

// spread summarizes a per-OSD load distribution.
type spread struct {
	n        int
	mean, cv float64 // cv = stddev/mean over the nonzero entries
	maxRatio float64 // max / mean
}

func spreadOf[V int | int64](m map[wire.NodeID]V) spread {
	if len(m) == 0 {
		return spread{}
	}
	// Float accumulation is not associative: sum in sorted-node order so
	// the reported cv/maxRatio are bit-identical across same-seed runs.
	ids := make([]wire.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum, max float64
	for _, id := range ids {
		f := float64(m[id])
		sum += f
		if f > max {
			max = f
		}
	}
	mean := sum / float64(len(m))
	var varsum float64
	for _, id := range ids {
		d := float64(m[id]) - mean
		varsum += d * d
	}
	s := spread{n: len(m), mean: mean}
	if mean > 0 {
		s.cv = math.Sqrt(varsum/float64(len(m))) / mean
		s.maxRatio = max / mean
	}
	return s
}

// histogram renders a per-OSD byte distribution as a compact sorted list
// (KiB, descending) — the fan-out histogram of the experiment's report.
func histogram(m map[wire.NodeID]int64) string {
	vals := make([]int64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	out := "["
	for i, v := range vals {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d", v>>10)
	}
	return out + "]"
}

// RunPlacement preloads a multi-file working set, runs a foreground update
// load, fails the most-loaded OSD a third of the way through, recovers it
// under interleaved mode (so surrogates absorb the degraded journal while
// reconstruction fans out), and returns the per-OSD spread of recovery
// sources, rebuild targets and surrogate journals.
func RunPlacement(cfg RunConfig) (*PlacementResult, error) {
	dres, err := RunDegraded(cfg, cluster.RecoverInterleaved)
	if err != nil {
		return nil, err
	}
	return &PlacementResult{
		Cfg:          cfg,
		Report:       dres.Report,
		SourceBytes:  dres.Report.SourceReadBytes,
		Targets:      dres.Report.TargetBlocks,
		JournalBytes: dres.JournalBytes,
		DipPct:       dres.DipPct,
		Stripes:      dres.Stripes,
	}, nil
}

// Placement runs the placement-spread experiment across PG counts: the
// recovery fan-out histogram, the per-OSD recovery read volume, and the
// surrogate journal load CV, all under the same multi-file foreground
// workload. Low PG counts reproduce the concentrated single-volume layout;
// high counts approach uniform spread.
func Placement(w io.Writer, s Scale) error {
	t := s.table(w, "placement", fmt.Sprintf("== Placement: recovery fan-out and surrogate spread vs PG count (tsue, SSD, Ali-Cloud, RS(6,4), %d files) ==", s.Files),
		"pgs\tlost blks\tfanout\tsrc CV\tsrc max/mean\ttargets\tsurrogates\tjournal(KB)\tjournal CV\trecover(ms)\tdip")
	// The histograms follow as a table of their own: as rows of the main
	// table they would set its second column's width.
	hist := []string{"pgs\tsrc KB/OSD (desc)"}
	for _, pgs := range s.PGCounts {
		r, err := RunPlacement(s.multiFileConfig("tsue", 16, pgs))
		if err != nil {
			return fmt.Errorf("placement pgs=%d: %w", pgs, err)
		}
		src := spreadOf(r.SourceBytes)
		jrn := spreadOf(r.JournalBytes)
		var jTotal int64
		for _, v := range r.JournalBytes {
			jTotal += v
		}
		t.row(map[string]string{"pgs": fmt.Sprint(pgs)}, fmt.Sprint(pgs), []cell{
			{"lost_blocks", "%d", r.Report.Blocks},
			{"fanout", "%d", r.FanOut()},
			{"src_cv", "%.2f", src.cv},
			{"src_max_mean", "%.2f", src.maxRatio},
			{"targets", "%d", len(r.Targets)},
			{"surrogates", "%d", len(r.JournalBytes)},
			{"journal_kb", "%.1f", float64(jTotal) / 1024},
			{"journal_cv", "%.2f", jrn.cv},
			{"recover_ms", "%.1f", ms(r.Report.TotalTime)},
			{"dip_pct", "%.0f%%", r.DipPct},
		})
		hist = append(hist, fmt.Sprintf("%d\t%s", pgs, histogram(r.SourceBytes)))
	}
	if err := t.Flush(); err != nil {
		return err
	}
	for _, line := range hist {
		fmt.Fprintln(t, line)
	}
	return t.Flush()
}
