package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"tsue/internal/cluster"
	"tsue/internal/device"
	"tsue/internal/netsim"
	"tsue/internal/rs"
	"tsue/internal/sim"
	"tsue/internal/update"
)

// The cluster shape is restated here as literals (the values of
// harness.DefaultRunConfig + buildCluster at the commit that defined the
// benchmark) so that a later change of a default does not silently change
// what the benchmark measures.
const (
	shapeOSDs      = 16
	shapeK         = 6
	shapeM         = 4
	shapeBlockSize = 1 << 20
	shapePGs       = 128
	slotSize       = 4 << 10 // trace alignment and shadow-file granularity
)

func engineOptions() update.Options {
	o := update.DefaultOptions()
	o.UnitSize = 1 << 20
	o.RecycleBatch = 1
	o.RecycleThreshold = 64 << 20
	o.PLRReserve = 8 << 10
	o.CordBufferSize = 1 << 20
	return o
}

func newCluster(engine string, fileBytes int64, adm cluster.AdmissionPolicy, traceSample int) (*cluster.Cluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.OSDs = shapeOSDs
	cfg.K, cfg.M = shapeK, shapeM
	cfg.MatrixKind = rs.Vandermonde
	cfg.BlockSize = shapeBlockSize
	cfg.DeviceKind = device.SSD
	cfg.DeviceParams = device.SSDParams()
	// FTL sized at twice the OSD's share of the file plus 512 MiB of
	// headroom for the circular log regions; 16 KiB pages, 64 per block.
	share := fileBytes * (shapeK + shapeM) / shapeK / shapeOSDs
	cfg.DeviceParams.Capacity = 2*share + 512<<20
	cfg.DeviceParams.PageSize = 16 << 10
	cfg.DeviceParams.BlockPages = 64
	cfg.NetParams = netsim.Ethernet25G()
	cfg.Engine = engine
	cfg.EngineOpts = engineOptions()
	cfg.PGs = shapePGs
	cfg.Admission = adm
	cfg.TraceSample = traceSample
	return cluster.New(cfg)
}

// bed is one preloaded cluster with the benchmark's shadow copy of its file.
type bed struct {
	c       *cluster.Cluster
	admin   *cluster.Client
	ino     uint64
	size    int64
	shadow  *shadowFile
	payload []byte // source of update payloads
	opSeq   uint64
}

// preload creates the file and writes seeded content through the normal
// encoded write path. It must run inside a sim process.
func preload(p *sim.Proc, c *cluster.Cluster, fileBytes, seed int64) (*bed, error) {
	sw := c.StripeWidth()
	size := (fileBytes + sw - 1) / sw * sw
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	admin := c.NewClient()
	ino, err := admin.Create(p, "vol0", size)
	if err != nil {
		return nil, err
	}
	if err := admin.WriteFile(p, ino, content); err != nil {
		return nil, err
	}
	c.ResetStats()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(seed + 999)).Read(payload)
	return &bed{c: c, admin: admin, ino: ino, size: size, shadow: newShadowFile(content), payload: payload}, nil
}

// nextPayload returns size bytes that differ from one update to the next, so
// a lost or misordered update shows in the read-back.
func (b *bed) nextPayload(size int) []byte {
	b.opSeq++
	start := int(b.opSeq * 4099 % uint64(len(b.payload)-size))
	return b.payload[start : start+size]
}

// clamp keeps an op of the given size inside the file.
func (b *bed) clamp(off int64, size int32) int64 {
	if off+int64(size) > b.size {
		off = b.size - int64(size)
		off -= off % slotSize
	}
	return off
}

// shadowFile is the benchmark's flat model of the file: per 4 KiB slot the
// payload of the last update that completed with no other update to that slot
// in flight. A slot whose last completed update overlapped another in flight
// is ambiguous (either order is legal) and is skipped by the read-back check.
type shadowFile struct {
	data      []byte
	inflight  []int32
	tainted   []bool
	ambiguous []bool
}

func newShadowFile(content []byte) *shadowFile {
	n := len(content) / slotSize
	return &shadowFile{
		data:      content,
		inflight:  make([]int32, n),
		tainted:   make([]bool, n),
		ambiguous: make([]bool, n),
	}
}

// begin notes an update to [off, off+n) being issued.
func (s *shadowFile) begin(off int64, n int) {
	for i := off / slotSize; i < (off+int64(n))/slotSize; i++ {
		if s.inflight[i] > 0 {
			s.tainted[i] = true
		}
		s.inflight[i]++
	}
}

// end notes the update's reply; applied is false when it failed, which
// leaves the slots' content unknown.
func (s *shadowFile) end(off int64, payload []byte, applied bool) {
	for i := off / slotSize; i < (off+int64(len(payload)))/slotSize; i++ {
		s.inflight[i]--
		if s.tainted[i] || !applied {
			s.ambiguous[i] = true
		} else {
			s.ambiguous[i] = false
			lo := i*slotSize - off
			copy(s.data[i*slotSize:(i+1)*slotSize], payload[lo:lo+slotSize])
		}
		if s.inflight[i] == 0 {
			s.tainted[i] = false
		}
	}
}

// mismatches compares got, read from file offset off, with the shadow copy:
// the unambiguous slots that differ, and the slots checked.
func (s *shadowFile) mismatches(off int64, got []byte) (bad, checked int) {
	for lo := int64(0); lo < int64(len(got)); lo += slotSize {
		if s.ambiguous[(off+lo)/slotSize] {
			continue
		}
		checked++
		if !bytes.Equal(s.data[off+lo:off+lo+slotSize], got[lo:lo+slotSize]) {
			bad++
		}
	}
	return bad, checked
}

// scrub is the first half of the correctness gate: after DrainAll every
// stripe's parity must equal its re-encoded data. It returns the stripes
// checked.
func (b *bed) scrub() (int, error) {
	n, err := b.c.Scrub()
	if err != nil {
		return n, fmt.Errorf("scrub: %w", err)
	}
	return n, nil
}

// readBack is the second half: a full read of the file, a stripe at a time,
// must equal the shadow copy on every unambiguous slot.
func (b *bed) readBack(p *sim.Proc) (bad, checked int, err error) {
	sw := b.c.StripeWidth()
	for off := int64(0); off < b.size; off += sw {
		got, err := b.admin.Read(p, b.ino, off, sw)
		if err != nil {
			return bad, checked, fmt.Errorf("read-back at %d: %w", off, err)
		}
		nb, nc := b.shadow.mismatches(off, got)
		bad, checked = bad+nb, checked+nc
	}
	if bad > 0 {
		err = fmt.Errorf("read-back: %d of %d unambiguous slots differ from the shadow file", bad, checked)
	}
	return bad, checked, err
}
