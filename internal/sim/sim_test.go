package sim

import (
	"errors"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var woke time.Duration
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		woke = p.Now()
	})
	end := e.Run(0)
	if woke != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", woke)
	}
	if end != 10*time.Millisecond {
		t.Fatalf("end at %v, want 10ms", end)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEnv()
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(5-i) * time.Millisecond)
				order = append(order, i)
			})
		}
		e.Run(0)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic ordering")
		}
	}
	// Sleeps of 5..1ms: proc 4 wakes first.
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("order %v, want %v", a, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEnv()
	var reached bool
	e.Go("a", func(p *Proc) {
		p.Sleep(time.Second)
		reached = true
	})
	end := e.Run(100 * time.Millisecond)
	if reached {
		t.Fatal("event past limit ran")
	}
	if end != 100*time.Millisecond {
		t.Fatalf("end %v, want 100ms", end)
	}
	e.Close()
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("disk", 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			done = append(done, p.Now())
		})
	}
	e.Run(0)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done=%v want=%v", done, want)
		}
	}
	if r.BusyTime != 30*time.Millisecond {
		t.Fatalf("busy=%v", r.BusyTime)
	}
}

func TestResourceCapacityParallel(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("disk", 2)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			done = append(done, p.Now())
		})
	}
	end := e.Run(0)
	if end != 20*time.Millisecond {
		t.Fatalf("4 jobs on cap-2 resource finished at %v, want 20ms", end)
	}
	_ = done
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("u", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // arrive in order
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
		q.Close()
	})
	e.Run(0)
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueBlockingGetWakesInOrder(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	for i := 0; i < 3; i++ {
		e.Go("c", func(p *Proc) {
			v, ok := q.Get(p)
			if ok {
				got = append(got, v)
			}
		})
	}
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Put(100)
		q.Put(200)
		q.Put(300)
	})
	e.Run(0)
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("got %v", got)
	}
	e.Close()
}

func TestQueueCloseWakesGetters(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	notOK := 0
	e.Go("c", func(p *Proc) {
		if _, ok := q.Get(p); !ok {
			notOK++
		}
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
	})
	e.Run(0)
	if notOK != 1 {
		t.Fatal("getter not woken by Close")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv()
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run(0)
	if doneAt != 3*time.Millisecond {
		t.Fatalf("wait finished at %v, want 3ms", doneAt)
	}
}

func TestParallel(t *testing.T) {
	e := NewEnv()
	var zeroErr, gotErr error
	var spawned, finished int
	var doneAt time.Duration
	var spans []any
	e.Go("parent", func(p *Proc) {
		before := e.LiveProcs()
		zeroErr = Parallel(p, "none", 0, func(*Proc, int) error {
			t.Error("fn called with n == 0")
			return nil
		})
		spawned = e.LiveProcs() - before
		p.SetSpan("parent-span")
		gotErr = Parallel(p, "child", 3, func(hp *Proc, i int) error {
			spans = append(spans, hp.Span())
			switch i {
			case 0:
				hp.Sleep(2 * time.Millisecond)
				finished++
				return errors.New("proc 0")
			case 1:
				hp.Sleep(time.Millisecond)
				finished++
				return errors.New("proc 1")
			}
			hp.Sleep(3 * time.Millisecond)
			finished++
			return nil
		})
		doneAt = p.Now()
	})
	e.Run(0)
	if zeroErr != nil || spawned != 0 {
		t.Fatalf("n == 0: err=%v, spawned %d procs", zeroErr, spawned)
	}
	if finished != 3 || doneAt != 3*time.Millisecond {
		t.Fatalf("returned at %v with %d of 3 children finished", doneAt, finished)
	}
	if gotErr == nil || gotErr.Error() != "proc 1" {
		t.Fatalf("err = %v, want the first to complete (proc 1)", gotErr)
	}
	for i, s := range spans {
		if s != "parent-span" {
			t.Fatalf("child %d span = %v, want the parent's", i, s)
		}
	}
}

func TestCloseUnwindsParkedProcs(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	for i := 0; i < 10; i++ {
		e.Go("stuck", func(p *Proc) {
			q.Get(p) // blocks forever
		})
	}
	e.Run(0)
	if e.LiveProcs() != 10 {
		t.Fatalf("live=%d want 10", e.LiveProcs())
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Fatalf("live=%d after Close, want 0", e.LiveProcs())
	}
}

func TestAtCallback(t *testing.T) {
	e := NewEnv()
	var at time.Duration
	e.At(5*time.Millisecond, func() { at = e.Now() })
	e.Run(0)
	if at != 5*time.Millisecond {
		t.Fatalf("callback at %v", at)
	}
}

func TestAtPastClampsToNow(t *testing.T) {
	e := NewEnv()
	var ran bool
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Env().At(0, func() { ran = true }) // in the past
	})
	e.Run(0)
	if !ran {
		t.Fatal("past event never ran")
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEnv()
	var hits int
	e.Go("outer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Env().Go("inner", func(p2 *Proc) {
				p2.Sleep(time.Millisecond)
				hits++
			})
		}
		p.Sleep(2 * time.Millisecond)
	})
	e.Run(0)
	if hits != 3 {
		t.Fatalf("hits=%d", hits)
	}
}

func TestYield(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run(0)
	if order[0] != "a1" || order[1] != "b1" || order[2] != "a2" {
		t.Fatalf("order %v", order)
	}
}

func BenchmarkContextSwitch(b *testing.B) {
	e := NewEnv()
	e.Go("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run(0)
}
