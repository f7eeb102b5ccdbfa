package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// refQueue is the container/heap event queue the kernel used before the
// typed heap, kept as the reference the typed heap is compared against.
type refQueue []event

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].before(&q[j]) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TestHeapMatchesContainerHeap interleaves random pushes and pops, with few
// distinct timestamps so that most comparisons fall through to seq, and
// requires the typed heap to pop exactly what container/heap pops.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref refQueue
		var seq uint64
		var now time.Duration
		pop := func() {
			got, want := h.pop(), heap.Pop(&ref).(event)
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d: popped (t=%v seq=%d), container/heap pops (t=%v seq=%d)",
					seed, got.t, got.seq, want.t, want.seq)
			}
			now = got.t // as in the kernel: nothing is scheduled before the last pop
		}
		for i := 0; i < 5000; i++ {
			if len(h) != len(ref) {
				t.Fatalf("seed %d: len %d, reference %d", seed, len(h), len(ref))
			}
			if len(h) > 0 && rng.Intn(5) < 2 {
				pop()
				continue
			}
			seq++
			ev := event{t: now + time.Duration(rng.Intn(4)), seq: seq}
			h.push(ev)
			heap.Push(&ref, ev)
		}
		for len(h) > 0 {
			pop()
		}
		if len(ref) != 0 {
			t.Fatalf("seed %d: reference still holds %d events", seed, len(ref))
		}
	}
}

// TestProcPanicSurfacesInRun: a panic in a proc body is a panic in whoever
// drives the scheduler — recoverable there, naming the proc — and the
// environment stays usable: Close unwinds the procs that are left.
func TestProcPanicSurfacesInRun(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			q.Get(p)
		})
	}
	e.Go("bomber", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	e.Go("bystander", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Second)
	})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Run returned normally past a panicking proc")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "boom") || !strings.Contains(msg, "bomber") {
				t.Fatalf("recovered %q, want the panic value and the proc name", msg)
			}
			if !strings.Contains(msg, "TestProcPanicSurfacesInRun") {
				t.Fatalf("recovered value does not carry the proc's stack:\n%s", msg)
			}
		}()
		e.Run(0)
	}()
	if e.LiveProcs() != 4 {
		t.Fatalf("live=%d after the panic, want the 4 bystanders", e.LiveProcs())
	}
	e.Close()
	if unwound != 4 || e.LiveProcs() != 0 {
		t.Fatalf("Close after a proc panic unwound %d procs, %d still live", unwound, e.LiveProcs())
	}
}

// carrierGoroutines counts the goroutines of this process that are kernel
// coroutines, parked anywhere. runtime.NumGoroutine would do but for the
// test runner: the goroutine of the previous test may still be exiting when
// the next test takes its baseline.
func carrierGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "sim.(*carrier).loop(")
}

// TestCloseLeavesNoGoroutine: with parked procs, procs whose start event
// never ran, and idle carriers all present, Close leaves the process with
// the coroutines it had before the environment existed.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := carrierGoroutines()
	e := NewEnv()
	q := NewQueue[int](e)
	for i := 0; i < 5; i++ {
		e.Go("parked", func(p *Proc) { q.Get(p) })
		e.Go("done", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	e.Run(0)
	for i := 0; i < 3; i++ {
		e.Go("never-started", func(p *Proc) { t.Error("a proc started during Close") })
	}
	if len(e.idle) != 5 || e.LiveProcs() != 8 {
		t.Fatalf("setup: %d idle carriers, %d live procs; want 5 and 8", len(e.idle), e.LiveProcs())
	}
	if n := carrierGoroutines(); n != before+10 {
		t.Fatalf("setup: %d coroutines over the baseline, want 10 (5 parked + 5 idle)", n-before)
	}
	e.Close()
	if n := carrierGoroutines(); n != before {
		t.Fatalf("%d coroutines after Close, %d before NewEnv", n, before)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live=%d after Close", e.LiveProcs())
	}
}

// TestCarrierReuse: a proc started after another has ended runs on the
// ended proc's coroutine instead of a new goroutine, and a stale wake for
// the ended proc is refused by name rather than delivered to its successor.
func TestCarrierReuse(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	first := e.Go("first", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Run(0)
	coroutines := carrierGoroutines()
	if len(e.idle) != 1 {
		t.Fatalf("%d idle carriers after the first proc ended, want 1", len(e.idle))
	}
	idle := e.idle[0]

	var ran *carrier
	second := e.Go("second", func(p *Proc) {
		ran = p.co
		p.Sleep(time.Microsecond)
	})
	e.Run(0)
	if ran != idle {
		t.Fatal("the second proc did not run on the first proc's carrier")
	}
	if n := carrierGoroutines(); n != coroutines {
		t.Fatalf("coroutines %d -> %d across the second Go", coroutines, n)
	}
	if second.co != nil || len(e.idle) != 1 {
		t.Fatal("the carrier did not return to the free list")
	}

	e.wakeAt(first, e.Now())
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "finished proc first") {
			t.Fatalf("stale wake: recovered %q, want a panic naming proc first", msg)
		}
	}()
	e.Run(0)
	t.Fatal("a wake for a finished proc was delivered")
}

// TestCloseRunsDefersInSpawnOrder: the kill at Close is an unwind, so user
// defers run, and they run in the order the procs were spawned — including
// a proc spawned later by another proc, and with finished procs in between.
func TestCloseRunsDefersInSpawnOrder(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var order []int
	stuck := func(id int) func(*Proc) {
		return func(p *Proc) {
			defer func() { order = append(order, id) }()
			q.Get(p)
		}
	}
	e.Go("p0", stuck(0))
	e.Go("p1", func(p *Proc) {
		defer func() { order = append(order, 1) }()
		p.Sleep(time.Millisecond)
		p.Env().Go("p4", stuck(4))
		p.Sleep(time.Hour)
	})
	e.Go("gone", func(p *Proc) {})
	e.Go("p2", stuck(2))
	e.Go("p3", func(p *Proc) {
		defer func() { order = append(order, 3) }()
		defer p.Sleep(time.Second) // blocking while unwinding must not park again
		e.NewResource("r", 1).Use(p, time.Hour)
	})
	e.Run(time.Second)
	e.Close()
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("defers ran in order %v, want spawn order [0 1 2 3 4]", order)
	}
}

func BenchmarkSpawn(b *testing.B) {
	e := NewEnv()
	defer e.Close()
	wg := NewWaitGroup(e)
	e.Go("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			e.Go("child", func(*Proc) { wg.Done() })
			wg.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkResourceUse(b *testing.B) {
	e := NewEnv()
	defer e.Close()
	r := e.NewResource("r", 1)
	e.Go("user", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			r.Use(p, time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkQueueHandoff(b *testing.B) {
	e := NewEnv()
	defer e.Close()
	ping, pong := NewQueue[int](e), NewQueue[int](e)
	e.Go("echo", func(p *Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(v)
		}
	})
	e.Go("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
		ping.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
}
