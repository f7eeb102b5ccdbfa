package main

import (
	"fmt"
	"io"

	"tsue/internal/trace"
	"tsue/internal/update"
)

// The engine sweep replays one small fixed Ali-Cloud closed loop on each of
// the six update engines. It is a guard: a change aimed at one engine should
// leave the other five rows where they were.
const (
	sweepOps    = 1504 // 16 clients x 94
	sweepFileMB = 24
)

func runEngines(cfg config, rep *report, log io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	var tsue, best float64
	for _, eng := range update.Names() {
		it := newIter(cfg.seed, cfg.scale, sweepFileMB, false)
		if cfg.fileMB > 0 && cfg.fileMB < sweepFileMB {
			it.fileMB = cfg.fileMB
		}
		err := runClosed(it, closedSpec{engine: eng, profile: trace.AliCloud, ops: sweepOps})
		it.finish()
		rep.Attempted += it.attempted
		rep.Failed += it.failed + it.lost + it.mismatched
		if err != nil {
			return nil, fmt.Errorf("engine sweep, %s: %w", eng, err)
		}
		iops := derive("ali_tsue", it.agg).val["sim_iops"]
		out["update."+eng+".host_us_per_op"] = 1e6 / it.host["host_ops_per_s"]
		out["update."+eng+".sim_iops"] = iops
		out["update."+eng+".alloc_bytes_per_op"] = it.host["host_alloc_bytes_per_op"]
		fmt.Fprintf(log, "# engine %-6s %8.0f sim IOPS, %7.1f host us/op\n", eng, iops, 1e6/it.host["host_ops_per_s"])
		if eng == "tsue" {
			tsue = iops
		} else if iops > best {
			best = iops
		}
	}
	out["update.tsue_over_best_baseline"] = tsue / best
	return out, nil
}
