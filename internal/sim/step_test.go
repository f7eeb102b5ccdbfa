package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestStepEmptyQueue(t *testing.T) {
	e := NewEnv()
	if e.HasPendingEvents() {
		t.Fatal("fresh env reports pending events")
	}
	if end := e.Run(0); end != 0 {
		t.Fatalf("empty Run ended at %v", end)
	}
	if e.HasPendingEvents() {
		t.Fatal("pending events after empty Run")
	}
}

func TestStepMatchesRun(t *testing.T) {
	build := func() (*Env, *[]int) {
		e := NewEnv()
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(5-i) * time.Millisecond)
				order = append(order, i)
			})
		}
		return e, &order
	}

	er, ordRun := build()
	er.Run(0)

	es, ordStep := build()
	for es.HasPendingEvents() {
		es.ProcessNextEvent()
	}

	if len(*ordRun) != len(*ordStep) {
		t.Fatalf("run=%v step=%v", *ordRun, *ordStep)
	}
	for i := range *ordRun {
		if (*ordRun)[i] != (*ordStep)[i] {
			t.Fatalf("run=%v step=%v", *ordRun, *ordStep)
		}
	}
	if es.Now() != er.Now() {
		t.Fatalf("clocks diverged: run=%v step=%v", er.Now(), es.Now())
	}
}

func TestStepSimultaneousTimestampsSeqOrder(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	for e.HasPendingEvents() {
		if got := e.PeekNextEventTime(); got != time.Millisecond {
			t.Fatalf("peek %v, want 1ms", got)
		}
		e.ProcessNextEvent()
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not in seq order when stepped: %v", order)
		}
	}
}

func TestStepInterleavedAt(t *testing.T) {
	// An event handler scheduling new work mid-step must be observable by
	// the very next Peek/Process cycle, including events at the current
	// timestamp.
	e := NewEnv()
	var hits []time.Duration
	e.At(time.Millisecond, func() {
		e.At(time.Millisecond, func() { hits = append(hits, e.Now()) }) // same instant
		e.After(2*time.Millisecond, func() { hits = append(hits, e.Now()) })
	})
	steps := 0
	for e.HasPendingEvents() {
		e.ProcessNextEvent()
		steps++
	}
	if steps != 3 {
		t.Fatalf("steps=%d, want 3", steps)
	}
	if len(hits) != 2 || hits[0] != time.Millisecond || hits[1] != 3*time.Millisecond {
		t.Fatalf("hits=%v", hits)
	}
}

func TestStepPeekDoesNotAdvance(t *testing.T) {
	e := NewEnv()
	ran := false
	e.At(5*time.Millisecond, func() { ran = true })
	for i := 0; i < 3; i++ {
		if got := e.PeekNextEventTime(); got != 5*time.Millisecond {
			t.Fatalf("peek %v", got)
		}
	}
	if ran || e.Now() != 0 {
		t.Fatal("peek executed or advanced the clock")
	}
	e.ProcessNextEvent()
	if !ran || e.Now() != 5*time.Millisecond {
		t.Fatal("process did not run the event")
	}
}

func TestRunLimitKeepsFutureEvents(t *testing.T) {
	// An event past the limit stays queued, so a later Run resumes it.
	e := NewEnv()
	var reached bool
	e.Go("a", func(p *Proc) {
		p.Sleep(time.Second)
		reached = true
	})
	e.Run(100 * time.Millisecond)
	if reached {
		t.Fatal("event past limit ran")
	}
	if !e.HasPendingEvents() {
		t.Fatal("event past limit was discarded")
	}
	if end := e.Run(0); end != time.Second {
		t.Fatalf("resumed run ended at %v", end)
	}
	if !reached {
		t.Fatal("resumed run skipped the event")
	}
}

func TestQueuePutAfterCloseDrops(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	q.Put(1)
	q.Close()
	q.Put(2)
	q.Put(3)
	if q.Dropped() != 2 {
		t.Fatalf("dropped=%d, want 2", q.Dropped())
	}
	if e.DroppedPuts() != 2 {
		t.Fatalf("env dropped=%d, want 2", e.DroppedPuts())
	}
	// The pre-close item is still drainable; the dropped ones are gone.
	if v, ok := q.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet=(%d,%v)", v, ok)
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("dropped value surfaced")
	}
	q2 := NewQueue[int](e)
	if q2.Dropped() != 0 {
		t.Fatal("fresh queue has drops")
	}
	if e.DroppedPuts() != 2 {
		t.Fatal("env counter changed by unrelated queue")
	}
}

func TestRunBoundedMatchesRun(t *testing.T) {
	build := func() (*Env, *[]int) {
		e := NewEnv()
		var order []int
		for i := 0; i < 5; i++ {
			e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(5-i) * time.Millisecond)
				order = append(order, i)
			})
		}
		return e, &order
	}
	er, ordRun := build()
	endRun := er.Run(0)
	eb, ordBounded := build()
	endBounded, err := eb.RunBounded(Bound{Events: 10, Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if endBounded != endRun || fmt.Sprint(*ordBounded) != fmt.Sprint(*ordRun) {
		t.Fatalf("bounded run ended at %v with %v, Run at %v with %v", endBounded, *ordBounded, endRun, *ordRun)
	}
}

// TestRunBoundedStopsLivelock: a proc that re-arms itself at the same
// instant forever exhausts the event budget instead of hanging, and the
// error names the sim time and the live procs.
func TestRunBoundedStopsLivelock(t *testing.T) {
	e := NewEnv()
	e.Go("spin", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for {
			p.Sleep(0)
		}
	})
	end, err := e.RunBounded(Bound{Events: 1000, Deadline: time.Hour})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if end != time.Millisecond || !strings.Contains(err.Error(), "sim time 1ms") || !strings.Contains(err.Error(), "1 live procs") {
		t.Fatalf("end %v, err %q: want the stop at 1ms with 1 live proc named", end, err)
	}
	e.Close()
}

// TestRunBoundedStopsAtDeadline: an event due after the deadline stops the
// run before it, and stays queued.
func TestRunBoundedStopsAtDeadline(t *testing.T) {
	e := NewEnv()
	e.Go("poll", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	end, err := e.RunBounded(Bound{Events: 1 << 20, Deadline: 10 * time.Second})
	if !errors.Is(err, ErrBudget) || end != 10*time.Second || !e.HasPendingEvents() {
		t.Fatalf("end %v, err %v, pending %v: want a stop at 10s with the next event queued", end, err, e.HasPendingEvents())
	}
	e.Close()
}
