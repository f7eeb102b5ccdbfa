package main

import (
	"errors"
	"fmt"
	"time"

	"tsue/internal/cluster"
	"tsue/internal/obs"
	"tsue/internal/sim"
	"tsue/internal/trace"
	"tsue/internal/wire"
)

// opSample is one completed client op: when its latency started counting
// (issue in a closed loop, scheduled arrival in an open one) and how long the
// reply took.
type opSample struct{ due, lat time.Duration }

func latencies(samples []opSample, from, to time.Duration) latDist {
	var out []time.Duration
	for _, s := range samples {
		if s.due >= from && s.due <= to {
			out = append(out, s.lat)
		}
	}
	return newLatDist(out)
}

const forever = time.Duration(1<<63 - 1)

// tally collects what the clients of one cluster did.
type tally struct {
	it         *iter
	b          *bed
	span       int // replay span the op spans attach to (traced pass)
	updates    []opSample
	reads      []opSample
	userBytes  int64 // bytes of completed updates
	rejections int64
	last       time.Duration // latest completion
	firstErr   error
}

// Open-loop submitters retry an admission bounce after retryBackoff, at most
// maxRetries times; a closed-loop client never sees one (no admission).
const (
	retryBackoff = 2 * time.Millisecond
	maxRetries   = 10000
)

// do runs one client op to its reply and books it. Its latency counts from
// due.
func (t *tally) do(p *sim.Proc, cl *cluster.Client, op trace.Op, due time.Duration) {
	it, b := t.it, t.b
	it.attempted++
	off := b.clamp(op.Off, op.Size)
	var payload []byte
	if op.Kind == trace.Write {
		payload = b.nextPayload(int(op.Size))
		b.shadow.begin(off, len(payload))
	}
	var err error
	for try := 0; ; try++ {
		if op.Kind == trace.Write {
			err = cl.Update(p, b.ino, off, payload)
		} else {
			_, err = cl.Read(p, b.ino, off, int64(op.Size))
		}
		if err == nil || !errors.Is(err, cluster.ErrOverload) {
			break
		}
		t.rejections++
		if try+1 >= maxRetries {
			break
		}
		p.Sleep(retryBackoff)
	}
	if op.Kind == trace.Write {
		b.shadow.end(off, payload, err == nil)
	}
	now := p.Now()
	switch {
	case err == nil:
		it.ops++
		if now > t.last {
			t.last = now
		}
		s := opSample{due: due, lat: now - due}
		name := "read"
		if op.Kind == trace.Write {
			t.updates = append(t.updates, s)
			t.userBytes += int64(op.Size)
			name = "update"
		} else {
			t.reads = append(t.reads, s)
		}
		if it.rec != nil {
			it.rec.op(name, t.span, due, now)
		}
	case errors.Is(err, cluster.ErrOverload):
		it.lost++ // refused and never completed
	default:
		it.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// agg is the raw sim-clock record of one iteration, or of several pooled:
// latency samples, additive counters and high-water marks, by name. Every
// sim-clock metric is derived from it (derive.go), so pooling the timed
// iterations of a run — one sub-seed each — is a merge followed by the same
// derivation.
type agg struct {
	lat map[string][]time.Duration
	sum map[string]float64
	max map[string]float64
}

func newAgg() *agg {
	return &agg{lat: map[string][]time.Duration{}, sum: map[string]float64{}, max: map[string]float64{}}
}

func (a *agg) add(name string, v float64) { a.sum[name] += v }

func (a *agg) hi(name string, v float64) {
	if v > a.max[name] {
		a.max[name] = v
	}
}

func (a *agg) samples(name string, d latDist) { a.lat[name] = append(a.lat[name], d...) }

func (a *agg) merge(b *agg) {
	for k, v := range b.lat {
		a.lat[k] = append(a.lat[k], v...)
	}
	for k, v := range b.sum {
		a.sum[k] += v
	}
	for k, v := range b.max {
		a.hi(k, v)
	}
}

// meter brackets the measured window of one cluster and, when it stops, reads
// the layers' own counters into the iteration's record.
type meter struct {
	it    *iter
	b     *bed
	start time.Duration
	tx0   map[wire.NodeID]time.Duration
}

func (it *iter) startMeter(b *bed) *meter {
	m := &meter{it: it, b: b, start: b.c.Env.Now(), tx0: map[wire.NodeID]time.Duration{}}
	for _, osd := range b.c.OSDs {
		tx, _, _, _ := b.c.Fabric.NICLoad(osd.NodeID())
		m.tx0[osd.NodeID()] = tx
	}
	return m
}

// replayed closes a replay window of the given length: the busiest OSD NIC's
// transmit time over it is the utilisation sample.
func (m *meter) replayed(window time.Duration) {
	var busiest time.Duration
	for _, osd := range m.b.c.OSDs {
		tx, _, _, _ := m.b.c.Fabric.NICLoad(osd.NodeID())
		if d := tx - m.tx0[osd.NodeID()]; d > busiest {
			busiest = d
		}
		m.tx0[osd.NodeID()] = tx
	}
	a := m.it.agg
	a.add("nic_busy_s", busiest.Seconds())
	a.add("nic_window_s", window.Seconds())
}

// stop reads the counters after DrainAll. ops and userBytes are what the
// clients completed since the meter started.
func (m *meter) stop(ops int, userBytes int64) {
	c, a := m.b.c, m.it.agg
	a.add("ops", float64(ops))
	a.add("user_bytes", float64(userBytes))
	a.add("clusters", 1)
	a.add("measured_s", (c.Env.Now() - m.start).Seconds())

	d := c.DeviceStats()
	a.add("dev.busy_s", d.BusyTime.Seconds())
	a.add("dev.rand_write_ops", float64(d.RandWriteOps))
	a.add("dev.seq_write_ops", float64(d.SeqWriteOps))
	a.add("dev.read_bytes", float64(d.ReadBytes))
	a.add("dev.host_write_bytes", float64(d.HostWriteBytes))
	a.add("dev.nand_write_bytes", float64(d.NandWriteBytes))
	a.add("dev.erases", float64(d.Erases))
	n := c.Fabric.TotalStats()
	a.add("net.bytes", float64(n.BytesSent))
	a.add("net.msgs", float64(n.MsgsSent))
	a.add("peak_log_bytes", float64(c.PeakMemBytes()))
	a.add("rejected", float64(c.AdmissionStats().Rejected))
	for layer, st := range c.Residency() { // nil for engines without the three-layer log
		a.add("res."+layer+".append_n", float64(st.AppendN))
		a.add("res."+layer+".append_s", st.AppendTime.Seconds())
		a.add("res."+layer+".buffer_n", float64(st.BufferN))
		a.add("res."+layer+".buffer_s", st.BufferTime.Seconds())
		a.add("res."+layer+".recycle_n", float64(st.RecycleN))
		a.add("res."+layer+".recycle_s", st.RecycleTime.Seconds())
	}
	if m.it.traced {
		m.it.stages(c)
	}
}

// stages reduces the program's own trace (TraceSample = 1) to the time updates
// spent in each stage. Only the traced pass has spans to read.
func (it *iter) stages(c *cluster.Cluster) {
	spans := c.Obs.Tracer.Spans()
	a := it.agg
	a.add("obs.spans", float64(len(spans)))
	for _, tv := range obs.GroupTraces(spans) {
		if tv.Op != obs.OpUpdate && tv.Op != obs.OpDegradedUpdate {
			continue
		}
		a.add("obs.updates", 1)
		a.add("obs.e2e_s", tv.Duration().Seconds())
		for st, d := range tv.Breakdown() {
			a.add("obs.stage_"+obs.Stage(st).String()+"_s", d.Seconds())
		}
	}
}

// ---- closed loop: ali_tsue, ten_plr ----

const closedClients = 16

type closedSpec struct {
	engine  string
	profile func(int64) trace.Profile
	fileMB  int64
	ops     int
}

// runClosed replays a trace profile closed-loop: closedClients clients, each
// sending its next op only when the previous one was answered.
func runClosed(it *iter, w closedSpec) error {
	fileBytes := it.fileBytes(w.fileMB)
	c, err := it.build(w.engine, fileBytes, nil)
	if err != nil {
		return err
	}
	return it.drive(c, func(p *sim.Proc) error {
		b, err := it.load(p, c, fileBytes)
		if err != nil {
			return err
		}
		t := &tally{it: it, b: b}
		m := it.startMeter(b)
		ph := it.begin(c.Env, "replay", groupTimed)
		t.span = ph.span
		start := p.Now()
		opsPer := it.scaled(w.ops, closedClients) / closedClients
		wg := sim.NewWaitGroup(c.Env)
		wg.Add(closedClients)
		for ci := 0; ci < closedClients; ci++ {
			cl := c.NewClient()
			gen := trace.MustGenerator(w.profile(b.size), it.seed+int64(ci)*7919)
			c.Env.Go(fmt.Sprintf("client%d", ci), func(cp *sim.Proc) {
				defer wg.Done()
				for j := 0; j < opsPer && t.firstErr == nil; j++ {
					t.do(cp, cl, gen.Next(), cp.Now())
				}
			})
		}
		wg.Wait(p)
		ph.end()
		if t.firstErr != nil {
			return t.firstErr
		}
		m.replayed(p.Now() - start)
		if err := it.drain(p, b); err != nil {
			return err
		}
		m.stop(len(t.updates)+len(t.reads), t.userBytes)

		a := it.agg
		a.add("replay_s", (t.last - start).Seconds())
		a.add("updates", float64(len(t.updates)))
		a.samples("update", latencies(t.updates, 0, forever))
		a.samples("read", latencies(t.reads, 0, forever))
		return it.gate(p, b)
	})
}

// ---- open loop: open_tsue ----

// openRates are the fixed offered rates in ops/s, run in this order on one
// cluster with a DrainAll between them so each starts from empty logs. Only
// the last is past the knee, so its backlog reaches no other rate.
var openRates = []int{4000, 8000, 10000, 12000, 14000}

const (
	openLatencyRate = 8000  // the rate the update latencies are read at
	openReadMaxRate = 10000 // reads are pooled over the rates up to this one
	openTopRate     = 14000 // sim_iops is the goodput at this rate
	openWindowMs    = 125   // each rate is offered for this much sim time
	openInflight    = 64    // MDS admission: TokenBucket{MaxInflight}
)

// runOpen offers Poisson arrivals at each fixed rate: one sim process per
// arrival, dispatched at its scheduled instant however many are still in
// flight. Offsets are Zipf(1.1) over the file's 4 KiB slots; sizes and the
// read/update mix come from the Ali-Cloud profile.
func runOpen(it *iter) error {
	fileBytes := it.fileBytes(96)
	c, err := it.build("tsue", fileBytes, &cluster.TokenBucket{MaxInflight: openInflight})
	if err != nil {
		return err
	}
	return it.drive(c, func(p *sim.Proc) error {
		b, err := it.load(p, c, fileBytes)
		if err != nil {
			return err
		}
		pool := make([]*cluster.Client, closedClients)
		for i := range pool {
			pool[i] = c.NewClient()
		}
		a := it.agg
		m := it.startMeter(b)
		var ops int
		var userBytes, rejections int64
		for ri, rate := range openRates {
			t := &tally{it: it, b: b}
			lost0 := it.lost
			arrivals := it.scaled(rate*openWindowMs/1000, 20)
			ph := it.begin(c.Env, "replay", groupTimed)
			t.span = ph.span
			start := p.Now()

			seed := it.seed + int64(ri)*1000003
			arr := newPoisson(float64(rate), seed)
			zipf := newZipf(uint64(b.size/slotSize), 1.1, seed+1)
			gen := trace.MustGenerator(trace.AliCloud(b.size), seed+2)
			wg := sim.NewWaitGroup(c.Env)
			var first, due time.Duration
			for i := 0; i < arrivals; i++ {
				due = start + arr.next()
				if i == 0 {
					first = due
				}
				if wait := due - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
				a.hi("gen_lag_us", us(p.Now()-due))
				op := gen.Next()
				op.Off = int64(zipf.Uint64()) * slotSize
				cl, at := pool[i%len(pool)], due
				wg.Add(1)
				c.Env.Go("arrival", func(ap *sim.Proc) {
					defer wg.Done()
					t.do(ap, cl, op, at)
				})
			}
			wg.Wait(p)
			ph.end()
			if t.firstErr != nil {
				return fmt.Errorf("rate %d: %w", rate, t.firstErr)
			}
			m.replayed(p.Now() - start)
			if err := it.drain(p, b); err != nil {
				return err
			}

			at := fmt.Sprintf("@%d", rate)
			a.add("ops"+at, float64(len(t.updates)+len(t.reads)))
			a.add("updates"+at, float64(len(t.updates)))
			a.add("lost"+at, float64(it.lost-lost0))
			a.add("span_s"+at, (t.last - first).Seconds()) // first arrival to last completion
			a.add("sched_s"+at, (due - first).Seconds())   // first arrival to last arrival
			a.add("arrivals"+at, float64(arrivals))
			a.samples("update"+at, latencies(t.updates, 0, forever))
			if rate <= openReadMaxRate {
				a.samples("read", latencies(t.reads, 0, forever))
			}
			ops += len(t.updates) + len(t.reads)
			userBytes += t.userBytes
			rejections += t.rejections
		}
		if got := c.AdmissionStats().Rejected; got != rejections {
			return fmt.Errorf("submitters saw %d admission rejections, the MDS counted %d", rejections, got)
		}
		m.stop(ops, userBytes)
		return it.gate(p, b)
	})
}

// ---- recovery under load: recover_tsue ----

const (
	recoverWarmOps  = 2000
	recoverReaders  = 4
	recoverThink    = 500 * time.Microsecond
	recoverParallel = 8
)

// runRecover kills the most-loaded OSD under a running foreground (16
// update-only closed-loop clients and 4 paced reader probes) and rebuilds it
// with interleaved recovery while the foreground keeps going; the replay
// stops when the cluster is healthy again.
func runRecover(it *iter) error {
	fileBytes := it.fileBytes(192)
	c, err := it.build("tsue", fileBytes, nil)
	if err != nil {
		return err
	}
	return it.drive(c, func(p *sim.Proc) error {
		b, err := it.load(p, c, fileBytes)
		if err != nil {
			return err
		}
		t := &tally{it: it, b: b}
		m := it.startMeter(b)
		ph := it.begin(c.Env, "replay", groupTimed)
		t.span = ph.span
		start := p.Now()
		stop := false
		wg := sim.NewWaitGroup(c.Env)
		for ci := 0; ci < closedClients; ci++ {
			cl := c.NewClient()
			gen := trace.MustGenerator(trace.AliCloud(b.size), it.seed+int64(ci)*7919)
			wg.Add(1)
			c.Env.Go(fmt.Sprintf("fg%d", ci), func(cp *sim.Proc) {
				defer wg.Done()
				for !stop && t.firstErr == nil {
					op := gen.Next()
					for op.Kind != trace.Write {
						op = gen.Next()
					}
					t.do(cp, cl, op, cp.Now())
				}
			})
		}
		for ri := 0; ri < recoverReaders; ri++ {
			cl := c.NewClient()
			gen := trace.MustGenerator(trace.AliCloud(b.size), it.seed+int64(1000+ri)*104651)
			wg.Add(1)
			c.Env.Go(fmt.Sprintf("rd%d", ri), func(cp *sim.Proc) {
				defer wg.Done()
				for !stop && t.firstErr == nil {
					op := gen.Next()
					op.Kind = trace.Read
					t.do(cp, cl, op, cp.Now())
					cp.Sleep(recoverThink)
				}
			})
		}

		warm := it.scaled(recoverWarmOps, 50)
		for len(t.updates) < warm && t.firstErr == nil {
			p.Sleep(100 * time.Microsecond)
		}
		// The most-loaded OSD, so the rebuild volume is representative.
		victim, most := wire.NodeID(1), -1
		for _, osd := range c.OSDs {
			if n := osd.Store().Len(); n > most {
				most, victim = n, osd.NodeID()
			}
		}
		t0 := p.Now()
		rph := it.begin(c.Env, "recover", "") // inside "replay": not added to the timed group twice
		rep, rerr := c.Recover(p, victim, recoverParallel, cluster.RecoverInterleaved, b.admin)
		rph.end()
		t1 := p.Now()
		stop = true
		wg.Wait(p)
		ph.end()
		if rerr != nil {
			return fmt.Errorf("recover node %d: %w", victim, rerr)
		}
		if t.firstErr != nil {
			return t.firstErr
		}
		m.replayed(p.Now() - start)
		if err := it.drain(p, b); err != nil {
			return err
		}
		m.stop(len(t.updates)+len(t.reads), t.userBytes)

		a := it.agg
		inWindow := latencies(t.updates, t0, t1)
		a.add("replay_s", (t.last - start).Seconds())
		a.add("updates", float64(len(t.updates)))
		a.add("rebuilt_bytes", float64(rep.Bytes))
		a.add("rebuilt_blocks", float64(rep.Blocks))
		a.add("recover_s", rep.TotalTime.Seconds())
		a.add("window_updates", float64(len(inWindow)))
		a.add("rec_window_s", (t1 - t0).Seconds())
		a.samples("update", latencies(t.updates, 0, forever))
		a.samples("read", latencies(t.reads, 0, forever))
		a.samples("degraded_read", latencies(t.reads, t0, t1))
		return it.gate(p, b)
	})
}
