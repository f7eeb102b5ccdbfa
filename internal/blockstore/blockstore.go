// Package blockstore is the per-OSD block storage layer. It holds the
// actual bytes of every data and parity block hosted by an OSD (so stripe
// consistency is verifiable end to end) and charges each access against the
// OSD's simulated device: blocks live at fixed device offsets, so in-place
// range updates are random I/O while full-block writes stream.
package blockstore

import (
	"fmt"
	"slices"

	"tsue/internal/device"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Store manages the blocks of one OSD.
type Store struct {
	dev       *device.Disk
	zone      int
	blockSize int64
	blocks    map[wire.BlockID]*entry
	nextSlot  int64
}

// granule is the at-rest checksum granularity: one CRC-32C per 4 KiB of a
// block (the last granule is short when the block size is not a multiple),
// so a range op verifies and re-sums only what it touches.
const granule = 4096

type entry struct {
	slot int64
	data []byte
	// ver counts writes to the block (Put, WriteRange, Modify, Rewrite).
	// Migration uses it to detect blocks dirtied between the bulk copy and
	// the cutover fence, so only those pay a catch-up re-copy.
	ver uint64
	// sums[g] is the CRC-32C of granule g of data. A read verifies the
	// granules it returns bytes from, so at-rest rot (CorruptStored)
	// surfaces as wire.ErrChecksum instead of silently corrupt bytes; a
	// write re-sums a granule only over bytes it just verified or just
	// wrote, so it can never launder rot into a valid sum. Scrub
	// (VerifyStored) owns the granules no range op happens to touch.
	sums []uint32
}

// gran returns the bytes of granule g.
func (e *entry) gran(g int) []byte {
	lo := g * granule
	hi := lo + granule
	if hi > len(e.data) {
		hi = len(e.data)
	}
	return e.data[lo:hi]
}

// span returns the granules [g0, g1) holding bytes of [off, off+n); empty
// for n == 0.
func span(off, n int64) (g0, g1 int) {
	if n == 0 {
		return 0, 0
	}
	return int(off / granule), int((off + n + granule - 1) / granule)
}

// covered reports whether [off, end) holds every byte of granule g.
func (e *entry) covered(g int, off, end int64) bool {
	lo := int64(g) * granule
	return off <= lo && end >= lo+int64(len(e.gran(g)))
}

// verify reports whether granules [g0, g1) match their sums.
func (e *entry) verify(g0, g1 int) bool {
	for g := g0; g < g1; g++ {
		if wire.Checksum(e.gran(g)) != e.sums[g] {
			return false
		}
	}
	return true
}

// resum recomputes the sums of granules [g0, g1) from the live bytes.
func (e *entry) resum(g0, g1 int) {
	for g := g0; g < g1; g++ {
		e.sums[g] = wire.Checksum(e.gran(g))
	}
}

// replace overwrites the whole block and all of its sums.
func (e *entry) replace(data []byte) {
	copy(e.data, data)
	e.ver++
	e.resum(0, len(e.sums))
}

// New creates a store on dev with fixed blockSize.
func New(dev *device.Disk, blockSize int64) *Store {
	if blockSize <= 0 {
		panic("blockstore: blockSize must be positive")
	}
	return &Store{
		dev:       dev,
		zone:      dev.NewZone("blocks", true),
		blockSize: blockSize,
		blocks:    make(map[wire.BlockID]*entry),
	}
}

// Device returns the underlying disk (engines add their own log zones).
func (s *Store) Device() *device.Disk { return s.dev }

// Has reports whether blk exists.
func (s *Store) Has(blk wire.BlockID) bool {
	_, ok := s.blocks[blk]
	return ok
}

// Len returns the number of stored blocks.
func (s *Store) Len() int { return len(s.blocks) }

func (s *Store) offset(e *entry, off int64) int64 { return e.slot*s.blockSize + off }

// Put stores a full block, charging one large device write (streaming for
// fresh blocks, overwrite for replacement).
func (s *Store) Put(p *sim.Proc, blk wire.BlockID, data []byte) error {
	if int64(len(data)) != s.blockSize {
		return fmt.Errorf("blockstore: Put %v size %d != block size %d", blk, len(data), s.blockSize)
	}
	e, exists := s.blocks[blk]
	if !exists {
		e = &entry{
			slot: s.nextSlot,
			data: make([]byte, s.blockSize),
			sums: make([]uint32, (s.blockSize+granule-1)/granule),
		}
		s.nextSlot++
		s.blocks[blk] = e
	}
	e.replace(data)
	s.dev.Write(p, s.zone, s.offset(e, 0), s.blockSize, exists)
	return nil
}

// Version returns the block's write counter (0 for absent blocks). Any
// write — full-block Put or Rewrite, in-place WriteRange or Modify — bumps
// it.
func (s *Store) Version(blk wire.BlockID) uint64 {
	e, ok := s.blocks[blk]
	if !ok {
		return 0
	}
	return e.ver
}

// rotErr is the failure of the range op named op on a granule whose bytes
// no longer match their sum.
func rotErr(op string, blk wire.BlockID) error {
	return fmt.Errorf("blockstore: %s %v: %w", op, blk, wire.ErrChecksum)
}

// lookup resolves blk and bounds-checks [off, off+n) for the range op named
// op.
func (s *Store) lookup(op string, blk wire.BlockID, off, n int64) (*entry, error) {
	e, ok := s.blocks[blk]
	if !ok {
		return nil, fmt.Errorf("blockstore: %s: no such block %v", op, blk)
	}
	if off < 0 || n < 0 || off+n > s.blockSize {
		return nil, fmt.Errorf("blockstore: %s %v [%d,%d) out of range", op, blk, off, off+n)
	}
	return e, nil
}

// ReadRange reads [off, off+size) of blk, charging a device read at the
// block's location. It verifies exactly the granules it returns bytes from:
// rot elsewhere in the block is scrub's to find.
func (s *Store) ReadRange(p *sim.Proc, blk wire.BlockID, off, size int64) ([]byte, error) {
	e, err := s.lookup("ReadRange", blk, off, size)
	if err != nil {
		return nil, err
	}
	if !e.verify(span(off, size)) {
		return nil, rotErr("ReadRange", blk)
	}
	s.dev.Read(p, s.zone, s.offset(e, off), size)
	return append([]byte(nil), e.data[off:off+size]...), nil
}

// WriteRange overwrites [off, off+len(data)) of blk in place, charging a
// random overwrite at the block's location. The first and last touched
// granules are verified first when the write covers them only partly —
// their new sums will vouch for the bytes the write leaves alone — so a
// partial write over rot fails with wire.ErrChecksum (nothing written,
// nothing charged) while a whole-granule overwrite heals it.
func (s *Store) WriteRange(p *sim.Proc, blk wire.BlockID, off int64, data []byte) error {
	n := int64(len(data))
	e, err := s.lookup("WriteRange", blk, off, n)
	if err != nil {
		return err
	}
	g0, g1 := span(off, n)
	if g0 < g1 {
		// Only the two edge granules can be partly covered; they are one
		// and the same when the write stays inside a granule.
		end, last := off+n, g1-1
		if (!e.covered(g0, off, end) && !e.verify(g0, g0+1)) ||
			(last != g0 && !e.covered(last, off, end) && !e.verify(last, g1)) {
			return rotErr("WriteRange", blk)
		}
	}
	copy(e.data[off:], data)
	e.ver++
	e.resum(g0, g1)
	s.dev.Write(p, s.zone, s.offset(e, off), n, true)
	return nil
}

// Modify is the in-place read-modify-write of [off, off+n): verify the
// touched granules, charge the device read, run fn on the live bytes, then
// bump the version, re-sum and charge the random overwrite — the events of
// a ReadRange followed by a WriteRange of the same range, with no copy out
// or in. fn must not block and must not retain cur.
func (s *Store) Modify(p *sim.Proc, blk wire.BlockID, off, n int64, fn func(cur []byte)) error {
	e, err := s.lookup("Modify", blk, off, n)
	if err != nil {
		return err
	}
	g0, g1 := span(off, n)
	if !e.verify(g0, g1) {
		return rotErr("Modify", blk)
	}
	s.dev.Read(p, s.zone, s.offset(e, off), n)
	fn(e.data[off : off+n : off+n])
	e.ver++
	e.resum(g0, g1)
	s.dev.Write(p, s.zone, s.offset(e, off), n, true)
	return nil
}

// Peek returns the live bytes of blk without charging the device — for
// scrub verification and tests only.
func (s *Store) Peek(blk wire.BlockID) ([]byte, bool) {
	e, ok := s.blocks[blk]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// CorruptStored flips one stored byte of blk at off WITHOUT updating its
// granule's checksum — at-rest bit rot for fault-injection tests. Any
// ReadRange or Modify touching that granule, and any WriteRange covering it
// only partly, fails with wire.ErrChecksum; VerifyStored reports it
// immediately.
func (s *Store) CorruptStored(blk wire.BlockID, off int64) error {
	e, ok := s.blocks[blk]
	if !ok {
		return fmt.Errorf("blockstore: CorruptStored: no such block %v", blk)
	}
	if off < 0 || off >= s.blockSize {
		return fmt.Errorf("blockstore: CorruptStored %v off %d out of range", blk, off)
	}
	e.data[off] ^= 0xff
	return nil
}

// VerifyStored re-checks every granule of blk against its stored checksum
// without charging the device (scrub path); absent blocks verify trivially.
func (s *Store) VerifyStored(blk wire.BlockID) bool {
	e, ok := s.blocks[blk]
	if !ok {
		return true
	}
	return e.verify(0, len(e.sums))
}

// Rewrite restores blk's bytes AND checksums from known-good data without
// charging the device beyond a normal overwrite — the scrub-repair store
// step for a rotted block (ReadRange would refuse to touch it).
func (s *Store) Rewrite(p *sim.Proc, blk wire.BlockID, data []byte) error {
	if int64(len(data)) != s.blockSize {
		return fmt.Errorf("blockstore: Rewrite %v size %d != block size %d", blk, len(data), s.blockSize)
	}
	e, ok := s.blocks[blk]
	if !ok {
		return s.Put(p, blk, data)
	}
	e.replace(data)
	s.dev.Write(p, s.zone, s.offset(e, 0), s.blockSize, true)
	return nil
}

// Delete removes blk (used when simulating data loss on a failed OSD).
func (s *Store) Delete(blk wire.BlockID) { delete(s.blocks, blk) }

// Blocks returns all block IDs in deterministic order.
func (s *Store) Blocks() []wire.BlockID {
	out := make([]wire.BlockID, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	// Map keys: no two ids compare equal, so the order is fully determined.
	slices.SortFunc(out, wire.BlockID.Compare)
	return out
}
