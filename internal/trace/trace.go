// Package trace models block-level I/O traces: the record type and
// synthetic generators calibrated to the statistics the TSUE paper reports
// for its three workloads (§2.1):
//
//	Ali-Cloud: 75% of requests are updates; 46% of updates are 4 KiB and
//	           60% are ≤16 KiB.
//	Ten-Cloud: 69% updates; 69% are 4 KiB, 88% ≤16 KiB; very strong
//	           locality (>80% of datasets touch <5% of their volume).
//	MSR:       ~90% of writes are updates, 60% <4 KiB, 90% <16 KiB, with
//	           well-known per-volume personalities (src1_0 … mds_0).
//
// The real traces are multi-gigabyte external downloads; the generators
// reproduce the distributional properties that drive update-path behaviour
// (update ratio, size mix, spatio-temporal locality) and are validated
// against those published numbers in the package tests.
package trace

import (
	"fmt"
	"math/rand"
)

// OpKind is a request type.
type OpKind uint8

const (
	Read OpKind = iota
	Write
)

// Op is one trace record in a volume's byte address space.
type Op struct {
	Kind OpKind
	Off  int64
	Size int32
}

// SizeBucket is one point of a cumulative size distribution.
type SizeBucket struct {
	Size int32
	Cum  float64 // P(size <= Size)
}

// Profile parameterizes a synthetic workload.
type Profile struct {
	Name string
	// UpdateRatio is the fraction of requests that are (over)writes.
	UpdateRatio float64
	// Sizes is the request size CDF (ascending, last Cum == 1.0).
	Sizes []SizeBucket
	// WorkingSet is the volume address span in bytes.
	WorkingSet int64
	// HotFraction of the working set receives HotAccess of the accesses
	// (temporal locality knob).
	HotFraction float64
	HotAccess   float64
	// SeqRun is the probability that a request continues where the previous
	// one ended (spatial locality knob).
	SeqRun float64
	// Align quantizes offsets (typically 4 KiB sectors).
	Align int64
}

func (p Profile) validate() error {
	if p.UpdateRatio < 0 || p.UpdateRatio > 1 {
		return fmt.Errorf("trace: %s: bad update ratio %f", p.Name, p.UpdateRatio)
	}
	if len(p.Sizes) == 0 || p.Sizes[len(p.Sizes)-1].Cum < 0.999 {
		return fmt.Errorf("trace: %s: size CDF must end at 1.0", p.Name)
	}
	if p.WorkingSet <= 0 {
		return fmt.Errorf("trace: %s: working set must be positive", p.Name)
	}
	return nil
}

// AliCloud returns the Ali-Cloud block-trace profile over the given working
// set (Li et al. 2020; statistics from TSUE §2.1).
func AliCloud(workingSet int64) Profile {
	return Profile{
		Name:        "ali-cloud",
		UpdateRatio: 0.75,
		Sizes: []SizeBucket{
			{4 << 10, 0.46}, {8 << 10, 0.54}, {16 << 10, 0.60},
			{64 << 10, 0.82}, {128 << 10, 0.93}, {256 << 10, 1.0},
		},
		WorkingSet:  workingSet,
		HotFraction: 0.10,
		HotAccess:   0.70,
		SeqRun:      0.25,
		Align:       4 << 10,
	}
}

// TenCloud returns the Tencent block-trace profile (Zhang et al. 2020;
// statistics from TSUE §2.1 and §2.3.3: over 80% of datasets touch less
// than 5% of their volume, hence the tighter hot set).
func TenCloud(workingSet int64) Profile {
	return Profile{
		Name:        "ten-cloud",
		UpdateRatio: 0.69,
		Sizes: []SizeBucket{
			{4 << 10, 0.69}, {8 << 10, 0.81}, {16 << 10, 0.88},
			{64 << 10, 0.96}, {256 << 10, 1.0},
		},
		WorkingSet:  workingSet,
		HotFraction: 0.04,
		HotAccess:   0.85,
		SeqRun:      0.30,
		Align:       4 << 10,
	}
}

// MSRVolumes lists the seven MSR Cambridge volumes used in the paper's HDD
// evaluation (Fig. 8), in the paper's order.
func MSRVolumes() []string {
	return []string{"src10", "src22", "proj2", "prn1", "hm0", "usr0", "mds0"}
}

// MSR returns a per-volume profile approximating the published MSR
// Cambridge characterizations (Narayanan et al. 2008): write ratio, request
// size mix and reuse differ strongly per server role.
func MSR(volume string, workingSet int64) (Profile, error) {
	base := Profile{
		Name:       "msr-" + volume,
		WorkingSet: workingSet,
		Align:      4 << 10,
	}
	switch volume {
	case "src10": // source control data: large sequential-ish writes
		base.UpdateRatio = 0.55
		base.Sizes = []SizeBucket{{4 << 10, 0.25}, {16 << 10, 0.55}, {64 << 10, 0.90}, {256 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.20, 0.55, 0.45
	case "src22": // source control metadata: small hot writes
		base.UpdateRatio = 0.70
		base.Sizes = []SizeBucket{{4 << 10, 0.60}, {16 << 10, 0.85}, {64 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.06, 0.80, 0.20
	case "proj2": // project directories: read-heavy
		base.UpdateRatio = 0.30
		base.Sizes = []SizeBucket{{4 << 10, 0.40}, {16 << 10, 0.70}, {64 << 10, 0.95}, {256 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.15, 0.60, 0.35
	case "prn1": // print server: mid-size bursts, weak locality
		base.UpdateRatio = 0.70
		base.Sizes = []SizeBucket{{8 << 10, 0.35}, {16 << 10, 0.60}, {64 << 10, 0.92}, {256 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.30, 0.45, 0.30
	case "hm0": // hardware monitor: small hot appends/overwrites
		base.UpdateRatio = 0.64
		base.Sizes = []SizeBucket{{4 << 10, 0.55}, {8 << 10, 0.80}, {16 << 10, 0.92}, {64 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.05, 0.85, 0.25
	case "usr0": // user home dirs: 4K-heavy, hot
		base.UpdateRatio = 0.60
		base.Sizes = []SizeBucket{{4 << 10, 0.65}, {16 << 10, 0.88}, {64 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.08, 0.75, 0.20
	case "mds0": // media server metadata: overwhelmingly small writes
		base.UpdateRatio = 0.88
		base.Sizes = []SizeBucket{{4 << 10, 0.70}, {8 << 10, 0.85}, {16 << 10, 0.95}, {64 << 10, 1.0}}
		base.HotFraction, base.HotAccess, base.SeqRun = 0.04, 0.88, 0.15
	default:
		return Profile{}, fmt.Errorf("trace: unknown MSR volume %q (want one of %v)", volume, MSRVolumes())
	}
	return base, nil
}

// Generator produces a deterministic op stream from a profile.
type Generator struct {
	p       Profile
	rng     *rand.Rand
	lastEnd int64
}

// NewGenerator validates the profile and seeds the stream.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Generator{p: p, rng: rand.New(rand.NewSource(seed)), lastEnd: -1}, nil
}

// MustGenerator is NewGenerator but panics on error.
func MustGenerator(p Profile, seed int64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Next returns the next op.
func (g *Generator) Next() Op {
	p := g.p
	kind := Read
	if g.rng.Float64() < p.UpdateRatio {
		kind = Write
	}
	size := g.pickSize()
	var off int64
	if g.lastEnd >= 0 && g.rng.Float64() < p.SeqRun {
		off = g.lastEnd
		if off+int64(size) > p.WorkingSet {
			off = 0
		}
	} else {
		var region, base int64
		if g.rng.Float64() < p.HotAccess {
			region = int64(float64(p.WorkingSet) * p.HotFraction)
			base = 0
		} else {
			base = int64(float64(p.WorkingSet) * p.HotFraction)
			region = p.WorkingSet - base
		}
		if region < int64(size) {
			region = int64(size)
			base = 0
		}
		off = base + g.rng.Int63n(region)
		if p.Align > 0 {
			off -= off % p.Align
		}
		if off+int64(size) > p.WorkingSet {
			off = p.WorkingSet - int64(size)
			if p.Align > 0 {
				off -= off % p.Align
			}
		}
	}
	g.lastEnd = off + int64(size)
	return Op{Kind: kind, Off: off, Size: size}
}

// Gen returns n ops.
func (g *Generator) Gen(n int) []Op {
	out := make([]Op, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func (g *Generator) pickSize() int32 {
	r := g.rng.Float64()
	for _, b := range g.p.Sizes {
		if r <= b.Cum {
			return b.Size
		}
	}
	return g.p.Sizes[len(g.p.Sizes)-1].Size
}

// Stats summarizes an op stream (used to validate generators against the
// published trace statistics).
type Stats struct {
	Ops          int
	Writes       int
	WriteRatio   float64
	Le4K, Le16K  float64 // fraction of writes at most 4 KiB / 16 KiB
	TouchedBytes int64   // unique bytes accessed (page-granular)
	TouchedFrac  float64 // TouchedBytes / working set
}

// ComputeStats scans ops against a working-set size.
func ComputeStats(ops []Op, workingSet int64) Stats {
	var st Stats
	st.Ops = len(ops)
	pages := make(map[int64]struct{})
	var le4, le16 int
	for _, op := range ops {
		for pg := op.Off >> 12; pg <= (op.Off+int64(op.Size)-1)>>12; pg++ {
			pages[pg] = struct{}{}
		}
		if op.Kind != Write {
			continue
		}
		st.Writes++
		if op.Size <= 4<<10 {
			le4++
		}
		if op.Size <= 16<<10 {
			le16++
		}
	}
	if st.Ops > 0 {
		st.WriteRatio = float64(st.Writes) / float64(st.Ops)
	}
	if st.Writes > 0 {
		st.Le4K = float64(le4) / float64(st.Writes)
		st.Le16K = float64(le16) / float64(st.Writes)
	}
	st.TouchedBytes = int64(len(pages)) << 12
	if workingSet > 0 {
		st.TouchedFrac = float64(st.TouchedBytes) / float64(workingSet)
	}
	return st
}
