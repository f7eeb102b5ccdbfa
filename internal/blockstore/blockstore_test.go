package blockstore

import (
	"bytes"
	"errors"
	"testing"

	"tsue/internal/device"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

func withStore(t *testing.T, fn func(p *sim.Proc, s *Store)) device.Stats {
	t.Helper()
	return withStoreOf(t, 4096, fn)
}

// withStoreOf runs fn in a sim process against a fresh store of the given
// block size and returns the device's final statistics.
func withStoreOf(t *testing.T, blockSize int64, fn func(p *sim.Proc, s *Store)) device.Stats {
	t.Helper()
	e := sim.NewEnv()
	d := device.New(e, "d", device.SSD, device.SSDParams())
	s := New(d, blockSize)
	e.Go("t", func(p *sim.Proc) { fn(p, s) })
	e.RunTest(t)
	e.Close()
	return d.Stats()
}

var blk = wire.BlockID{Ino: 1, Stripe: 2, Index: 3}

func TestPutReadRange(t *testing.T) {
	withStore(t, func(p *sim.Proc, s *Store) {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(i)
		}
		if err := s.Put(p, blk, data); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadRange(p, blk, 100, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[100:150]) {
			t.Fatal("range mismatch")
		}
	})
}

func TestPutWrongSize(t *testing.T) {
	withStore(t, func(p *sim.Proc, s *Store) {
		if err := s.Put(p, blk, make([]byte, 100)); err == nil {
			t.Fatal("wrong-size Put accepted")
		}
	})
}

func TestWriteRangeOverwriteAccounting(t *testing.T) {
	st := withStore(t, func(p *sim.Proc, s *Store) {
		if err := s.Put(p, blk, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteRange(p, blk, 10, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		got, _ := s.ReadRange(p, blk, 10, 3)
		if !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatal("write range lost")
		}
	})
	if st.OverwriteOps != 1 {
		t.Fatalf("overwrites=%d want 1", st.OverwriteOps)
	}
}

func TestRePutCountsOverwrite(t *testing.T) {
	st := withStore(t, func(p *sim.Proc, s *Store) {
		s.Put(p, blk, make([]byte, 4096))
		s.Put(p, blk, make([]byte, 4096))
	})
	if st.OverwriteOps != 1 {
		t.Fatalf("overwrites=%d want 1 (second Put)", st.OverwriteOps)
	}
}

func TestReadMissingBlock(t *testing.T) {
	withStore(t, func(p *sim.Proc, s *Store) {
		if _, err := s.ReadRange(p, blk, 0, 1); err == nil {
			t.Fatal("read of missing block succeeded")
		}
		if err := s.WriteRange(p, blk, 0, []byte{1}); err == nil {
			t.Fatal("write of missing block succeeded")
		}
	})
}

func TestRangeBounds(t *testing.T) {
	withStore(t, func(p *sim.Proc, s *Store) {
		s.Put(p, blk, make([]byte, 4096))
		if _, err := s.ReadRange(p, blk, 4000, 200); err == nil {
			t.Fatal("out-of-range read accepted")
		}
		if err := s.WriteRange(p, blk, 4000, make([]byte, 200)); err == nil {
			t.Fatal("out-of-range write accepted")
		}
		if _, err := s.ReadRange(p, blk, -1, 2); err == nil {
			t.Fatal("negative offset accepted")
		}
	})
}

func TestBlocksSortedAndDelete(t *testing.T) {
	withStore(t, func(p *sim.Proc, s *Store) {
		b1 := wire.BlockID{Ino: 2, Stripe: 0, Index: 0}
		b2 := wire.BlockID{Ino: 1, Stripe: 3, Index: 1}
		b3 := wire.BlockID{Ino: 1, Stripe: 3, Index: 0}
		for _, b := range []wire.BlockID{b1, b2, b3} {
			s.Put(p, b, make([]byte, 4096))
		}
		got := s.Blocks()
		if len(got) != 3 || got[0] != b3 || got[1] != b2 || got[2] != b1 {
			t.Fatalf("order %v", got)
		}
		s.Delete(b2)
		if s.Has(b2) || s.Len() != 2 {
			t.Fatal("delete failed")
		}
	})
}

func TestPeekNoDeviceCharge(t *testing.T) {
	st := withStore(t, func(p *sim.Proc, s *Store) {
		s.Put(p, blk, make([]byte, 4096))
		before := s.Device().Stats().ReadOps
		if _, ok := s.Peek(blk); !ok {
			t.Fatal("peek missed")
		}
		if s.Device().Stats().ReadOps != before {
			t.Fatal("Peek charged the device")
		}
	})
	_ = st
}

// pattern returns n deterministic, position-dependent bytes.
func pattern(n int64, mul int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*mul + i>>8)
	}
	return data
}

// rotSizes are the block sizes the at-rest contract is pinned on: four whole
// granules, and three granules plus a short tail.
var rotSizes = []int64{4 * granule, 3*granule + 1000}

// mustFailUntouched asserts that op fails with wire.ErrChecksum and leaves
// the device statistics, the block's version and its bytes as they were.
func mustFailUntouched(t *testing.T, s *Store, what string, op func() error) {
	t.Helper()
	st, ver := s.Device().Stats(), s.Version(blk)
	live, _ := s.Peek(blk)
	before := append([]byte(nil), live...)
	if err := op(); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("%s over rot: err=%v, want ErrChecksum", what, err)
	}
	if got := s.Device().Stats(); got != st {
		t.Fatalf("%s over rot charged the device: %+v -> %+v", what, st, got)
	}
	if s.Version(blk) != ver {
		t.Fatalf("%s over rot bumped the version", what)
	}
	if !bytes.Equal(live, before) {
		t.Fatalf("%s over rot mutated the block", what)
	}
}

// TestCorruptStoredDetected pins the at-rest contract per granule: rot is
// reported by exactly the range ops that touch its granule, never served
// and never re-summed; scrub (VerifyStored) sees it wherever it is; Rewrite
// or a whole-granule overwrite heals it.
func TestCorruptStoredDetected(t *testing.T) {
	for _, size := range rotSizes {
		last := int((size - 1) / granule) // the short granule when size is ragged
		for _, g := range []int{0, 1, last} {
			withStoreOf(t, size, func(p *sim.Proc, s *Store) {
				data := pattern(size, 7)
				if err := s.Put(p, blk, data); err != nil {
					t.Fatal(err)
				}
				if !s.VerifyStored(blk) {
					t.Fatal("fresh block fails verification")
				}
				lo := int64(g) * granule
				hi := lo + granule
				if hi > size {
					hi = size
				}
				rot := lo + (hi-lo)/2
				if err := s.CorruptStored(blk, rot); err != nil {
					t.Fatal(err)
				}
				if s.VerifyStored(blk) {
					t.Fatal("corrupted block passes verification")
				}

				// Every range op that touches granule g refuses, whether or
				// not its range holds the flipped byte.
				mustFailUntouched(t, s, "ReadRange of the granule", func() error {
					_, err := s.ReadRange(p, blk, lo, hi-lo)
					return err
				})
				mustFailUntouched(t, s, "ReadRange beside the flipped byte", func() error {
					_, err := s.ReadRange(p, blk, lo, 16)
					return err
				})
				mustFailUntouched(t, s, "whole-block ReadRange", func() error {
					_, err := s.ReadRange(p, blk, 0, size)
					return err
				})
				mustFailUntouched(t, s, "Modify", func() error {
					return s.Modify(p, blk, lo+8, 16, func([]byte) { t.Fatal("Modify ran fn on rotted bytes") })
				})
				mustFailUntouched(t, s, "partial WriteRange (head)", func() error {
					return s.WriteRange(p, blk, lo, []byte{1, 2, 3})
				})
				mustFailUntouched(t, s, "partial WriteRange (tail)", func() error {
					return s.WriteRange(p, blk, hi-3, []byte{1, 2, 3})
				})

				// Granules without rot stay fully usable, and using them
				// neither hides nor heals the rot.
				for other := 0; other <= last; other++ {
					if other == g {
						continue
					}
					olo := int64(other) * granule
					got, err := s.ReadRange(p, blk, olo, 64)
					if err != nil || !bytes.Equal(got, data[olo:olo+64]) {
						t.Fatalf("read of clean granule %d: err=%v", other, err)
					}
					if err := s.WriteRange(p, blk, olo+5, data[olo+5:olo+9]); err != nil {
						t.Fatalf("write to clean granule %d: %v", other, err)
					}
					if err := s.Modify(p, blk, olo+5, 4, func([]byte) {}); err != nil {
						t.Fatalf("modify of clean granule %d: %v", other, err)
					}
				}
				if s.VerifyStored(blk) {
					t.Fatal("ops on clean granules laundered the rot")
				}

				// Rewrite with known-good data repairs bytes and checksums.
				if err := s.Rewrite(p, blk, data); err != nil {
					t.Fatal(err)
				}
				if !s.VerifyStored(blk) {
					t.Fatal("Rewrite did not restore the checksums")
				}
				got, err := s.ReadRange(p, blk, lo, hi-lo)
				if err != nil || !bytes.Equal(got, data[lo:hi]) {
					t.Fatalf("read after Rewrite: err=%v", err)
				}

				// A write that covers the whole granule vouches for every
				// byte of it, so it heals rot without help.
				if err := s.CorruptStored(blk, rot); err != nil {
					t.Fatal(err)
				}
				if err := s.WriteRange(p, blk, lo, data[lo:hi]); err != nil {
					t.Fatalf("whole-granule overwrite of rot: %v", err)
				}
				if !s.VerifyStored(blk) {
					t.Fatal("whole-granule overwrite left a stale checksum")
				}
			})
		}
	}
	withStore(t, func(p *sim.Proc, s *Store) {
		if err := s.Put(p, blk, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := s.CorruptStored(blk, 9999); err == nil {
			t.Fatal("out-of-range corruption accepted")
		}
		if err := s.CorruptStored(wire.BlockID{Ino: 9}, 0); err == nil {
			t.Fatal("corrupting absent block accepted")
		}
		if !s.VerifyStored(wire.BlockID{Ino: 9}) {
			t.Fatal("absent block should verify trivially")
		}
	})
}

// TestWriteRangeSpanningRot: a multi-granule write verifies only the edge
// granules it covers partly; rot in a fully covered middle granule is
// overwritten, rot in a partly covered edge refuses the whole write.
func TestWriteRangeSpanningRot(t *testing.T) {
	const size = 4 * granule
	withStoreOf(t, size, func(p *sim.Proc, s *Store) {
		data := pattern(size, 3)
		if err := s.Put(p, blk, data); err != nil {
			t.Fatal(err)
		}
		wr := pattern(2*granule+200, 11) // [granule-100, 3*granule+100)
		off := int64(granule - 100)

		s.CorruptStored(blk, 2*granule+7) // middle, fully covered
		if err := s.WriteRange(p, blk, off, wr); err != nil {
			t.Fatalf("write over rot in a fully covered granule: %v", err)
		}
		if !s.VerifyStored(blk) {
			t.Fatal("covered rot survived the write")
		}
		copy(data[off:], wr)

		for _, rot := range []int64{5, 3*granule + 3000} { // head edge, tail edge
			s.CorruptStored(blk, rot)
			mustFailUntouched(t, s, "spanning WriteRange", func() error { return s.WriteRange(p, blk, off, wr) })
			if err := s.Rewrite(p, blk, data); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestModifyMatchesReadThenWrite: Modify is ReadRange + WriteRange of the
// same range — same device charges at the same virtual times, same version,
// same bytes and sums — on aligned, ragged and granule-spanning ranges.
func TestModifyMatchesReadThenWrite(t *testing.T) {
	type rng struct{ off, n int64 }
	for _, size := range rotSizes {
		ranges := []rng{{0, granule}, {100, 50}, {granule - 10, 20}, {granule + 1, 2*granule + 5}, {size - 700, 700}, {0, size}, {40, 0}}
		type outcome struct {
			st   device.Stats
			ver  uint64
			data []byte
			end  int64
		}
		run := func(modify bool) outcome {
			var o outcome
			o.st = withStoreOf(t, size, func(p *sim.Proc, s *Store) {
				if err := s.Put(p, blk, pattern(size, 5)); err != nil {
					t.Fatal(err)
				}
				for i, r := range ranges {
					mask := pattern(r.n, 13+i)
					if modify {
						err := s.Modify(p, blk, r.off, r.n, func(cur []byte) {
							if int64(len(cur)) != r.n || int64(cap(cur)) != r.n {
								t.Fatalf("Modify lent len %d cap %d, want %d", len(cur), cap(cur), r.n)
							}
							for j := range cur {
								cur[j] ^= mask[j]
							}
						})
						if err != nil {
							t.Fatal(err)
						}
						continue
					}
					cur, err := s.ReadRange(p, blk, r.off, r.n)
					if err != nil {
						t.Fatal(err)
					}
					for j := range cur {
						cur[j] ^= mask[j]
					}
					if err := s.WriteRange(p, blk, r.off, cur); err != nil {
						t.Fatal(err)
					}
				}
				if !s.VerifyStored(blk) {
					t.Fatal("stale checksum after the sequence")
				}
				live, _ := s.Peek(blk)
				o.ver, o.data, o.end = s.Version(blk), append([]byte(nil), live...), int64(p.Now())
			})
			return o
		}
		a, b := run(false), run(true)
		if a.st != b.st {
			t.Fatalf("size %d: device stats differ:\nread+write %+v\nmodify     %+v", size, a.st, b.st)
		}
		if a.ver != b.ver || a.end != b.end {
			t.Fatalf("size %d: version %d vs %d, end time %d vs %d", size, a.ver, b.ver, a.end, b.end)
		}
		if !bytes.Equal(a.data, b.data) {
			t.Fatalf("size %d: bytes differ", size)
		}
	}
}

func TestModifyMissingAndBounds(t *testing.T) {
	withStore(t, func(p *sim.Proc, s *Store) {
		nop := func([]byte) { t.Fatal("fn ran on a rejected Modify") }
		if err := s.Modify(p, blk, 0, 1, nop); err == nil {
			t.Fatal("modify of missing block succeeded")
		}
		s.Put(p, blk, make([]byte, 4096))
		if err := s.Modify(p, blk, 4000, 200, nop); err == nil {
			t.Fatal("out-of-range modify accepted")
		}
		if err := s.Modify(p, blk, -1, 2, nop); err == nil {
			t.Fatal("negative offset accepted")
		}
		if s.Version(blk) != 1 {
			t.Fatalf("rejected Modify bumped the version to %d", s.Version(blk))
		}
	})
}
