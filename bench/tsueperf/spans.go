package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced pass records spans from the benchmark's own files, around the
// public calls into the program: one per phase (host and sim clock) and one
// per client op (sim clock only — ops of concurrent clients interleave on the
// host, so an op has no host interval of its own). Spans are kept in memory
// and written when the benchmark ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Host interval in microseconds since the recorder started; both zero
	// for sim-only spans.
	HostStartUs float64 `json:"host_start_us"`
	HostEndUs   float64 `json:"host_end_us"`
	SimStartUs  float64 `json:"sim_start_us"`
	SimEndUs    float64 `json:"sim_end_us"`
}

type recorder struct {
	t0    time.Time
	spans []span
	root  int
	// cur is the span new phases attach to: the root, or the per-rate span
	// of an open-loop run (each rate has a cluster and a sim clock of its
	// own).
	cur int
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.root = r.open("iteration", "tsueperf", -1)
	r.cur = r.root
	return r
}

func (r *recorder) open(name, layer string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Layer: layer})
	return len(r.spans) - 1
}

func (r *recorder) close(id int, hostStart time.Time, host time.Duration, simStart, simEnd time.Duration) {
	s := &r.spans[id]
	s.HostStartUs = us(hostStart.Sub(r.t0))
	s.HostEndUs = s.HostStartUs + us(host)
	s.SimStartUs, s.SimEndUs = us(simStart), us(simEnd)
}

// op records one client op as a sim-only child span.
func (r *recorder) op(name string, parent int, simStart, simEnd time.Duration) {
	id := r.open(name, "client", parent)
	r.spans[id].SimStartUs, r.spans[id].SimEndUs = us(simStart), us(simEnd)
}

// closeRoot ends the iteration span at the current host time. It has no sim
// interval of its own: an iteration may hold more than one sim clock.
func (r *recorder) closeRoot() {
	r.close(r.root, r.t0, time.Since(r.t0), 0, 0)
}

// selfTime is one row of the self-time table: a span name's total duration
// minus the part of it that child spans cover.
type selfTime struct {
	Name       string  `json:"name"`
	Layer      string  `json:"layer"`
	Count      int     `json:"count"`
	HostUs     float64 `json:"host_us"`
	HostSelfUs float64 `json:"host_self_us"`
	SimUs      float64 `json:"sim_us"`
	SimSelfUs  float64 `json:"sim_self_us"`
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi float64, iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum float64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// selfTimes aggregates by span name: self time = duration − the part of the
// interval its children cover.
func (r *recorder) selfTimes() []selfTime {
	kids := make(map[int][]int)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	rows := make(map[string]*selfTime)
	var order []string
	for _, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name, Layer: s.Layer}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		var hostKids, simKids [][2]float64
		for _, k := range kids[s.ID] {
			c := r.spans[k]
			if c.HostEndUs > c.HostStartUs {
				hostKids = append(hostKids, [2]float64{c.HostStartUs, c.HostEndUs})
			}
			if c.SimEndUs > c.SimStartUs {
				simKids = append(simKids, [2]float64{c.SimStartUs, c.SimEndUs})
			}
		}
		row.Count++
		row.HostUs += s.HostEndUs - s.HostStartUs
		row.HostSelfUs += s.HostEndUs - s.HostStartUs - covered(s.HostStartUs, s.HostEndUs, hostKids)
		row.SimUs += s.SimEndUs - s.SimStartUs
		row.SimSelfUs += s.SimEndUs - s.SimStartUs - covered(s.SimStartUs, s.SimEndUs, simKids)
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	return out
}

// write stores the spans and their self-time table as
// <dir>/trace_<workload>.json.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Self     []selfTime `json:"self_time"`
		Spans    []span     `json:"spans"`
	}{workload, seed, r.selfTimes(), r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
