package sim

import (
	"slices"
	"testing"
	"time"
)

// saltRun runs one program under salt and returns the order its steps ran
// in. Sixteen callbacks and eight procs are queued for 1 ms before the clock
// gets there (one batch). Each callback schedules a follow-up for its own
// instant, and each follow-up one more; each proc yields once. Steps are
// logged as kind*100 + index: 0 batch callback, 1 follow-up, 2 second
// follow-up, 3 proc before its Yield, 4 proc after it.
func saltRun(salt uint64) []int {
	e := NewEnv()
	defer e.Close()
	e.SetTieSalt(salt)
	var order []int
	for i := 0; i < 16; i++ {
		e.At(time.Millisecond, func() {
			order = append(order, i)
			e.At(e.Now(), func() {
				order = append(order, 100+i)
				e.At(e.Now(), func() { order = append(order, 200+i) })
			})
		})
	}
	for i := 0; i < 8; i++ {
		e.Go("yielder", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, 300+i)
			p.Yield()
			order = append(order, 400+i)
		})
	}
	e.Run(0)
	return order
}

// TestTieSaltBatchRule pins the batch rule under salt 0 and eight salts: an
// event scheduled for the current instant runs after every event already
// queued for that instant, and same-instant events scheduled at their
// instant keep their scheduling order. Only the batch queued ahead of the
// instant is permuted, salt 0 leaves it in scheduling order, and one salt
// always gives one order.
func TestTieSaltBatchRule(t *testing.T) {
	permuted := 0
	for salt := uint64(0); salt <= 8; salt++ {
		order := saltRun(salt)
		if again := saltRun(salt); !slices.Equal(order, again) {
			t.Fatalf("salt %d: two runs ran %v and %v", salt, order, again)
		}
		if len(order) != 16*3+8*2 {
			t.Fatalf("salt %d: %d steps ran, want %d: %v", salt, len(order), 16*3+8*2, order)
		}
		// The batch: the 16 callbacks and the 8 procs' first steps (the
		// procs' wakes were queued at time 0, the callbacks' events too).
		batch := order[:24]
		var cbs, procs []int
		for _, v := range batch {
			switch {
			case v < 100:
				cbs = append(cbs, v)
			case v >= 300 && v < 400:
				procs = append(procs, v-300)
			default:
				t.Fatalf("salt %d: step %d ran inside the batch, before a queued event: %v", salt, v, order)
			}
		}
		if len(cbs) != 16 || len(procs) != 8 {
			t.Fatalf("salt %d: batch holds %d callbacks and %d procs: %v", salt, len(cbs), len(procs), order)
		}
		// Everything after the batch was scheduled at 1 ms itself, so it runs
		// in scheduling order: the follow-ups and the yields in the order the
		// batch ran them, then the second follow-ups in that order.
		var want []int
		for _, v := range batch {
			if v < 100 {
				want = append(want, 100+v)
			} else {
				want = append(want, v+100)
			}
		}
		for _, v := range batch {
			if v < 100 {
				want = append(want, 200+v)
			}
		}
		if got := order[24:]; !slices.Equal(got, want) {
			t.Fatalf("salt %d: after the batch ran\n%v\nwant\n%v", salt, got, want)
		}
		inOrder := slices.IsSorted(cbs) && slices.IsSorted(procs) && batch[0] < 100 && batch[16] >= 300
		if salt == 0 && !inOrder {
			t.Fatalf("salt 0 permuted the batch: %v", batch)
		}
		if salt != 0 && !inOrder {
			permuted++
		}
	}
	if permuted < 7 {
		t.Fatalf("only %d of 8 salts permuted a 24-event batch", permuted)
	}
}
