// Package device models block storage devices (SSD and HDD) for the
// simulated ECFS cluster.
//
// A Disk charges virtual time for every I/O according to a latency model
// with distinct sequential and random costs — the performance gap that every
// erasure-code update scheme in the TSUE paper is designed around — and
// records the op/volume/overwrite statistics reported in the paper's
// Table 1. SSDs additionally carry a page-mapped flash translation layer
// (FTL, see ftl.go) so NAND write amplification and erase counts are
// measured outputs, which is what the paper's lifespan claims rest on.
//
// Sequentiality is detected per zone: callers place each on-disk region
// (block area, each log pool, reserved parity-log space, ...) in its own
// zone, and an access is sequential when it starts where the previous access
// to that zone ended. This mirrors how an SSD's internal write buffering
// sees interleaved streams.
package device

import (
	"fmt"
	"time"

	"tsue/internal/obs"
	"tsue/internal/sim"
)

// Kind distinguishes device families.
type Kind int

const (
	SSD Kind = iota
	HDD
)

func (k Kind) String() string {
	if k == SSD {
		return "SSD"
	}
	return "HDD"
}

// Params is the device latency/bandwidth model.
type Params struct {
	SeqReadLat   time.Duration // fixed cost of a sequential read op
	SeqWriteLat  time.Duration // fixed cost of a sequential write op
	RandReadLat  time.Duration // fixed cost of a random read op
	RandWriteLat time.Duration // fixed cost of a random write op
	ReadBW       float64       // bytes/sec streaming read
	WriteBW      float64       // bytes/sec streaming write
	Parallelism  int           // internal concurrency (queue slots served at once)

	// SSD FTL geometry; ignored for HDD.
	PageSize   int64 // NAND page (program unit)
	BlockPages int   // pages per erase block
	Capacity   int64 // physical bytes (0 disables the FTL)
	OverProv   float64
}

// SSDParams returns the default SSD model: a datacenter NAND SSD of the
// class used on Chameleon nodes (§5.1). Random 4K ops cost several times a
// sequential op, per the paper's motivation.
func SSDParams() Params {
	return Params{
		SeqReadLat:   15 * time.Microsecond,
		SeqWriteLat:  20 * time.Microsecond,
		RandReadLat:  80 * time.Microsecond,
		RandWriteLat: 100 * time.Microsecond,
		ReadBW:       2.2e9,
		WriteBW:      1.1e9,
		Parallelism:  8,
		PageSize:     16 << 10,
		BlockPages:   256, // 4 MiB erase block
		Capacity:     0,   // set by the harness per experiment
		OverProv:     0.10,
	}
}

// HDDParams returns the default HDD model (7.2k RPM SATA): seek+rotation
// dominates random access; one op at a time.
func HDDParams() Params {
	return Params{
		SeqReadLat:   500 * time.Microsecond,
		SeqWriteLat:  500 * time.Microsecond,
		RandReadLat:  8500 * time.Microsecond,
		RandWriteLat: 9000 * time.Microsecond,
		ReadBW:       180e6,
		WriteBW:      160e6,
		Parallelism:  1,
	}
}

// Stats is a snapshot of device counters.
type Stats struct {
	ReadOps, WriteOps         int64
	ReadBytes, WriteBytes     int64
	SeqReadOps, RandReadOps   int64
	SeqWriteOps, RandWriteOps int64
	OverwriteOps              int64
	OverwriteBytes            int64
	BusyTime                  time.Duration
	HostWriteBytes            int64 // bytes the host wrote to flash-backed zones
	NandWriteBytes            int64 // bytes physically programmed (>= host: write amp)
	NandReadBytes             int64 // internal RMW + GC relocation reads
	Erases                    int64 // erase-block erasures
}

// Add accumulates other into s (for cluster-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.ReadOps += o.ReadOps
	s.WriteOps += o.WriteOps
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.SeqReadOps += o.SeqReadOps
	s.RandReadOps += o.RandReadOps
	s.SeqWriteOps += o.SeqWriteOps
	s.RandWriteOps += o.RandWriteOps
	s.OverwriteOps += o.OverwriteOps
	s.OverwriteBytes += o.OverwriteBytes
	s.BusyTime += o.BusyTime
	s.HostWriteBytes += o.HostWriteBytes
	s.NandWriteBytes += o.NandWriteBytes
	s.NandReadBytes += o.NandReadBytes
	s.Erases += o.Erases
}

// Disk is a simulated block device.
type Disk struct {
	name   string
	kind   Kind
	params Params
	res    *sim.Resource
	zones  []*zone
	stats  Stats
	ftl    *ftl
}

type zone struct {
	name    string
	lastEnd int64 // end offset of the previous access, -1 initially
	flash   bool  // participates in FTL wear accounting
}

// seqWindow: an access is sequential if it begins within this distance after
// the previous access to the same zone ended (tolerates small index gaps in
// append streams).
const seqWindow = 64 << 10

// New creates a disk bound to the simulation environment.
func New(e *sim.Env, name string, kind Kind, p Params) *Disk {
	if p.Parallelism < 1 {
		p.Parallelism = 1
	}
	d := &Disk{
		name:   name,
		kind:   kind,
		params: p,
		res:    e.NewResource("disk:"+name, p.Parallelism),
	}
	if kind == SSD && p.Capacity > 0 {
		d.ftl = newFTL(p.PageSize, p.BlockPages, p.Capacity, p.OverProv)
	}
	return d
}

// Name returns the device name.
func (d *Disk) Name() string { return d.name }

// Waits reports the disk's grants and queue wait for class c so far.
func (d *Disk) Waits(c sim.Class) sim.Waits { return d.res.Waits(c) }

// Kind returns the device family.
func (d *Disk) Kind() Kind { return d.kind }

// NewZone registers a sequentiality-tracking zone and returns its handle.
// flash marks the zone as FTL-backed (all persistent zones on an SSD).
func (d *Disk) NewZone(name string, flash bool) int {
	d.zones = append(d.zones, &zone{name: name, lastEnd: -1, flash: flash})
	return len(d.zones) - 1
}

func (d *Disk) classify(z *zone, off int64) bool {
	seq := z.lastEnd >= 0 && off >= z.lastEnd && off-z.lastEnd <= seqWindow
	return seq
}

func (d *Disk) cost(seq, write bool, size int64) time.Duration {
	p := d.params
	var base time.Duration
	var bw float64
	switch {
	case write && seq:
		base, bw = p.SeqWriteLat, p.WriteBW
	case write:
		base, bw = p.RandWriteLat, p.WriteBW
	case seq:
		base, bw = p.SeqReadLat, p.ReadBW
	default:
		base, bw = p.RandReadLat, p.ReadBW
	}
	return base + time.Duration(float64(size)/bw*float64(time.Second))
}

// Read charges a read of size bytes at off within zone z.
func (d *Disk) Read(p *sim.Proc, z int, off, size int64) {
	if size <= 0 {
		return
	}
	zn := d.zones[z]
	seq := d.classify(zn, off)
	zn.lastEnd = off + size
	d.stats.ReadOps++
	d.stats.ReadBytes += size
	if seq {
		d.stats.SeqReadOps++
	} else {
		d.stats.RandReadOps++
	}
	c := d.cost(seq, false, size)
	d.stats.BusyTime += c
	fin := d.ioSpan(p, "dev:read:"+zn.name)
	d.res.Use(p, c)
	fin()
}

// Write charges a write of size bytes at off within zone z. overwrite marks
// in-place updates of previously written content (the paper's write
// penalty); log appends are not overwrites.
func (d *Disk) Write(p *sim.Proc, z int, off, size int64, overwrite bool) {
	if size <= 0 {
		return
	}
	zn := d.zones[z]
	seq := d.classify(zn, off)
	zn.lastEnd = off + size
	d.stats.WriteOps++
	d.stats.WriteBytes += size
	if seq {
		d.stats.SeqWriteOps++
	} else {
		d.stats.RandWriteOps++
	}
	if overwrite {
		d.stats.OverwriteOps++
		d.stats.OverwriteBytes += size
	}
	if d.ftl != nil && zn.flash {
		r := d.ftl.hostWrite(int64(z), zoneBase(z)+off, size)
		d.stats.HostWriteBytes += size
		d.stats.NandWriteBytes += r.nandWrite
		d.stats.NandReadBytes += r.nandRead
		d.stats.Erases += r.erases
	}
	c := d.cost(seq, true, size)
	d.stats.BusyTime += c
	fin := d.ioSpan(p, "dev:write:"+zn.name)
	d.res.Use(p, c)
	fin()
}

// ioSpan opens a device-stage span around one charged I/O (queueing in the
// disk resource included) when p runs under a live trace; no-op otherwise.
// An I/O issued under a journal-stage span (surrogate-journal persistence,
// engine log appends) inherits that stage, so journal time in a trace
// breakdown includes its own device cost rather than leaking it into the
// generic device bucket.
func (d *Disk) ioSpan(p *sim.Proc, name string) func() {
	a, ok := obs.FromProc(p)
	if !ok {
		return nopFinish
	}
	stage := obs.StageDevice
	if a.Stage() == obs.StageJournal {
		stage = obs.StageJournal
	}
	return obs.SpanOn(p, stage, name, 0)
}

var nopFinish = func() {}

// zoneBase maps each zone into a disjoint logical address range for the FTL.
func zoneBase(z int) int64 { return int64(z) << 44 }

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the counters (FTL state is preserved).
func (d *Disk) ResetStats() { d.stats = Stats{} }

// Utilization returns busy-time / (elapsed * parallelism).
func (d *Disk) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(d.stats.BusyTime) / (float64(elapsed) * float64(d.params.Parallelism))
}

func (d *Disk) String() string {
	return fmt.Sprintf("%s(%s)", d.name, d.kind)
}
