//go:build go1.23

// The constraint above, on every non-test file of this package, exists for
// the iter import alone. go.mod stays at "go 1.22": the pinned benchmark
// module (bench/tsueperf/go.mod, go 1.22) requires this one, and the go
// command stops with "updates to go.mod needed" when a dependency declares a
// newer version than its dependent. The constraint lifts these files to the
// 1.23 language version instead, so vet's stdversion check accepts the
// import, and an older toolchain fails with the one line "build constraints
// exclude all Go files", not a page of "undefined: sim.Proc".

// Package sim is a small discrete-event simulation kernel. Simulated
// processes are coroutines that run one at a time under a virtual clock;
// they block on kernel primitives (Sleep, Resource, Queue, WaitGroup, Cond,
// and Parallel, a fan-out that waits for its children) and the scheduler
// advances time between events. This lets ordinary sequential Go code — the
// whole ECFS cluster in this repository — execute unmodified under simulated
// device and network timing, with fully deterministic results for a fixed
// event order.
//
// The scheduler is whoever calls Run or ProcessNextEvent. It pops events in
// time order, same-instant ties in the order SetTieSalt describes (by
// default the order they were scheduled in); an event either runs a callback
// in scheduler context (At, After) or resumes one process, which then runs
// on the scheduler's own thread until it blocks again or its body returns. A
// switch is a direct coroutine hand-off (iter.Pull): no Go scheduler run
// queue, no channel and no second thread is involved, and exactly one of
// scheduler and processes executes at any instant, so simulated code needs
// no locking.
//
// A panic in a process body surfaces, wrapped with the process name and its
// stack, as a panic in the caller of Run / ProcessNextEvent — the caller may
// recover it, and Close afterwards still unwinds everything else.
// runtime.Goexit in a body (t.FailNow in a test) likewise ends the caller.
//
// Close ends the environment. It unwinds every process that has started and
// not finished, in spawn order: the blocking call each is parked in panics
// with an internal sentinel, so the body's deferred functions run, and a
// blocking call made while unwinding panics again instead of parking.
// Processes whose start event never ran are dropped without running. The
// idle coroutines kept for reuse are released, so no goroutine of the
// environment outlives Close; an environment dropped without Close leaks
// them.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

//lint:allow-file nogoroutine(this file is the kernel implementation itself: it imports iter because the coroutine switch between scheduler and procs IS the one-runnable-goroutine discipline the analyzer enforces everywhere else; it contains no go statement, channel or sync primitive)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create with NewEnv, add processes with Go, execute with Run, release
// leftover processes with Close.
type Env struct {
	now         time.Duration
	seq         uint64
	events      eventHeap
	first, last *Proc      // unfinished procs, an intrusive list in spawn order
	idle        []*carrier // coroutines whose body returned, awaiting the next Go
	nprocs      int        // unfinished procs (len of the first..last list)
	droppedPuts int        // values discarded by Queue.Put after Close, env-wide
	salt        uint64     // tie salt (SetTieSalt); 0 keeps scheduling order
}

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// SetTieSalt chooses how events due at the same instant are ordered. The
// events scheduled for an instant t before the clock reached t form one
// batch; salt 0, the default, runs the batch in the order it was scheduled,
// and any other salt in a permutation derived from the salt. An event
// scheduled for the current instant (a Yield, a Go, a wake-up with no delay)
// runs after every event already queued for that instant, in scheduling
// order, at every salt: that is Yield's contract. The salt explores legal
// interleavings of one seeded run; no model behaviour reads it. Events
// already queued keep their place, so set it before Run.
func (e *Env) SetTieSalt(salt uint64) { e.salt = salt }

// event is one entry of the queue: at time t, resume p if it is set, else
// call fn in scheduler context. Carrying the proc itself keeps Sleep, Put,
// Release and Go free of a closure per event.
type event struct {
	t   time.Duration
	k   uint64 // tie key (tieKey), below 2⁶³ for an event scheduled ahead of its instant
	seq uint64
	p   *Proc
	fn  func()
}

func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.k != b.k {
		return a.k < b.k
	}
	return a.seq < b.seq
}

// sameInstant marks the tie key of an event scheduled for the current
// instant: it sorts after every key tieKey returns.
const sameInstant = 1 << 63

// tieKey is the tie key of the seq-th event, scheduled ahead of its instant,
// under salt: seq itself at salt 0, else the SplitMix64 finalizer of seq
// offset by the salt, cut to 63 bits. A collision falls through to seq.
func tieKey(salt, seq uint64) uint64 {
	if salt == 0 {
		return seq
	}
	x := seq + salt*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x ^ x>>31) &^ sameInstant
}

// eventHeap is a binary min-heap on (t, k, seq). seq is unique, so the order
// is total and the pop sequence is a function of the pushed set alone — it
// cannot differ from any other correct priority queue's. At salt 0 the key
// orders like (t, seq): every event scheduled ahead of an instant was
// scheduled before every event scheduled at it, so both key rules keep
// scheduling order.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(&q[up]) {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	ev := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
	return top
}

func (e *Env) schedule(t time.Duration, p *Proc, fn func()) {
	e.seq++
	k := sameInstant | e.seq
	if t > e.now {
		k = tieKey(e.salt, e.seq)
	}
	e.events.push(event{t: t, k: k, seq: e.seq, p: p, fn: fn})
}

// At schedules fn to run in scheduler context at absolute virtual time t
// (clamped to now). fn must not block; to run blocking code, start a process.
func (e *Env) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(t, nil, fn)
}

// After schedules fn at now+d.
func (e *Env) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// Proc is a simulated process. All blocking methods must only be called from
// the process's own body.
type Proc struct {
	env        *Env
	name       string
	fn         func(*Proc) // the body; nil once it has started
	co         *carrier    // the coroutine running the body; nil before start and after the end
	prev, next *Proc       // Env's list of unfinished procs
	span       any
	class      Class
}

// Env returns the environment that owns p.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// SetSpan attaches an opaque annotation to the process. The kernel never
// reads it; the observability layer (internal/obs) uses the slot to carry
// trace context across process spawns — Go returns the child Proc before it
// runs, so a spawner may SetSpan on the child to make it inherit a trace.
func (p *Proc) SetSpan(v any) { p.span = v }

// Span returns the annotation set by SetSpan (nil if none).
func (p *Proc) Span() any { return p.span }

// Class is a proc's scheduling class at a Resource.
type Class uint8

const (
	// Foreground is every proc's class unless it is set otherwise.
	Foreground Class = iota
	// Background waits at a Resource while any foreground waiter is
	// queued there.
	Background
	// NClasses is the number of classes.
	NClasses
)

// String returns "fg" or "bg".
func (c Class) String() string {
	if c == Background {
		return "bg"
	}
	return "fg"
}

// SetClass sets the class p queues in at every Resource. Like the span, a
// spawner may set it on a child Go has just returned; Parallel's children
// take their parent's.
func (p *Proc) SetClass(c Class) { p.class = c }

// Class returns the class set by SetClass (Foreground if none).
func (p *Proc) Class() Class { return p.class }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

type killedErr struct{ name string }

func (k killedErr) Error() string { return "sim: proc " + k.name + " killed at Close" }

// Go starts a new process running fn. The process begins executing at the
// current virtual time, after the caller yields to the scheduler.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn, prev: e.last}
	if e.last != nil {
		e.last.next = p
	} else {
		e.first = p
	}
	e.last = p
	e.nprocs++
	e.schedule(e.now, p, nil)
	return p
}

// unlink takes p off the list of unfinished procs.
func (e *Env) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.first = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.last = p.prev
	}
	p.prev, p.next = nil, nil
	e.nprocs--
}

// carrier is one coroutine. It runs a proc body, parks on Env.idle when the
// body returns, and runs the next body handed to it: a short-lived proc (a
// netsim handler per RPC) then costs neither a new goroutine nor growing a
// fresh stack.
type carrier struct {
	env   *Env
	p     *Proc                   // the proc whose body runs here; nil while idle
	next  func() (struct{}, bool) // scheduler side: switch into the coroutine
	stop  func()                  // scheduler side: make yield return false, wait for the coroutine to end
	yield func(struct{}) bool     // coroutine side: switch back to the scheduler
}

func (e *Env) newCarrier() *carrier {
	c := &carrier{env: e}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() {
		c.env.idle = append(c.env.idle, c)
		if !yield(struct{}{}) {
			return // released by Close
		}
	}
}

// run executes the body of c.p and reports whether it returned normally, in
// which case the carrier may be reused. A kill at Close ends the coroutine; so
// does any other panic, which iter.Pull re-raises in the scheduler — on the
// scheduler's stack, so the proc's name and stack travel in the value.
func (c *carrier) run() (returned bool) {
	p := c.p
	defer func() {
		c.p, p.co = nil, nil
		c.env.unlink(p)
		if returned {
			return
		}
		switch r := recover().(type) {
		case nil, killedErr: // nil: runtime.Goexit, which iter.Pull hands on
		default:
			panic(fmt.Sprintf("sim: proc %s panicked: %v\n%s", p.name, r, debug.Stack()))
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return true
}

// resume switches to p until it parks again or its body returns: the body
// starts on an idle carrier, or a new one, the first time.
func (e *Env) resume(p *Proc) {
	c := p.co
	if c == nil {
		if p.fn == nil {
			// With carriers reused this wake would otherwise run inside
			// whatever body the carrier hosts by now.
			panic("sim: wake for finished proc " + p.name)
		}
		if n := len(e.idle); n > 0 {
			c, e.idle[n-1] = e.idle[n-1], nil
			e.idle = e.idle[:n-1]
		} else {
			c = e.newCarrier()
		}
		c.p, p.co = p, c
	}
	c.next()
}

// park suspends the calling process until the scheduler wakes it.
func (p *Proc) park() {
	if !p.co.yield(struct{}{}) {
		panic(killedErr{p.name})
	}
}

// wakeAt schedules p to resume at absolute time t. Internal: each parked
// process must have exactly one pending wake.
func (e *Env) wakeAt(p *Proc, t time.Duration) { e.schedule(t, p, nil) }

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.wakeAt(p, p.env.now+d)
	p.park()
}

// Yield lets every other currently-runnable event at this timestamp run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// HasPendingEvents reports whether at least one event is scheduled. It is
// one of the three step primitives (with PeekNextEventTime and
// ProcessNextEvent) that let an external scheduler drive several
// environments in global timestamp order.
func (e *Env) HasPendingEvents() bool { return len(e.events) > 0 }

// PeekNextEventTime returns the timestamp of the earliest pending event
// without executing it. Call only when HasPendingEvents reports true.
func (e *Env) PeekNextEventTime() time.Duration { return e.events[0].t }

// ProcessNextEvent pops the earliest pending event, advances the clock to
// its timestamp, and executes it. Call only when HasPendingEvents reports
// true.
func (e *Env) ProcessNextEvent() {
	ev := e.events.pop()
	e.now = ev.t
	if ev.p != nil {
		e.resume(ev.p)
	} else {
		ev.fn()
	}
}

// Run executes events until the queue is empty or until limit (if > 0) is
// reached. It returns the virtual time at exit. An event scheduled past the
// limit stays queued, so a later Run (or step) call can resume where this
// one stopped.
func (e *Env) Run(limit time.Duration) time.Duration {
	for e.HasPendingEvents() {
		if limit > 0 && e.PeekNextEventTime() > limit {
			e.now = limit
			return e.now
		}
		e.ProcessNextEvent()
	}
	return e.now
}

// Bound limits one RunBounded call: at most Events events, none of them due
// after the sim time Deadline.
type Bound struct {
	Events   int
	Deadline time.Duration
}

// SmallBound is the budget of a small run, a test's or an example's: far
// above what any test in this module needs (the largest takes about 130 000
// events, the longest ten seconds of sim time), and small enough that a
// livelock fails in seconds instead of running into the test binary's
// timeout.
var SmallBound = Bound{Events: 10_000_000, Deadline: time.Minute}

// ErrBudget is the error RunBounded wraps when its bound runs out.
var ErrBudget = errors.New("sim: run budget exhausted")

// RunBounded runs events until the queue is empty, in exactly Run(0)'s
// order. When b.Events events have run and more are pending, or the next
// event is due after b.Deadline, it stops instead, leaving the rest queued,
// and returns an error wrapping ErrBudget that names the sim time and the
// live procs. A livelock (a proc that re-arms itself at the same instant)
// or a loop that never quiesces then fails where it is, not at a timeout;
// the caller adds what else identifies the run, such as its seed.
func (e *Env) RunBounded(b Bound) (time.Duration, error) {
	for n := 0; e.HasPendingEvents(); n++ {
		if n == b.Events || e.PeekNextEventTime() > b.Deadline {
			return e.now, fmt.Errorf("%w after %d events (deadline %v): sim time %v, next event at %v, %d live procs",
				ErrBudget, n, b.Deadline, e.now, e.PeekNextEventTime(), e.nprocs)
		}
		e.ProcessNextEvent()
	}
	return e.now, nil
}

// RunTest is a test's run: RunBounded under SmallBound, failing t with its
// error if the bound runs out first. It returns the sim time at the end.
func (e *Env) RunTest(t interface {
	Helper()
	Fatal(...any)
}) time.Duration {
	t.Helper()
	end, err := e.RunBounded(SmallBound)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// LiveProcs returns the number of unfinished processes.
func (e *Env) LiveProcs() int { return e.nprocs }

// DroppedPuts returns the total number of values discarded across all of
// this environment's queues by Put-after-Close.
func (e *Env) DroppedPuts() int { return e.droppedPuts }

// Close unwinds all parked processes (their blocking calls panic with an
// internal sentinel that is recovered in the process wrapper) and releases
// the idle coroutines, so no goroutine of the environment remains. Call
// after Run when discarding the environment.
func (e *Env) Close() {
	// Spawn order: the kill order is observable through user defers, so
	// like everything else under the kernel it must be deterministic.
	for p := e.first; p != nil; p = e.first {
		if p.co == nil {
			e.unlink(p) // its start event never ran: nothing to unwind
			continue
		}
		p.co.stop() // park panics killedErr; run unlinks p
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
	e.events = nil
}

// Resource models a server with fixed capacity (e.g. a disk with internal
// queue depth N, a NIC). A freed slot goes to the oldest queued foreground
// waiter, and to the oldest background waiter only when no foreground
// waiter is queued. A slot that is free when asked for is taken at once, by
// either class. With one class in play the grants are plain FIFO.
type Resource struct {
	env     *Env
	name    string
	cap     int
	inUse   int
	waiters [NClasses][]*Proc
	waits   [NClasses]Waits
	// BusyTime accumulates capacity-seconds of usage via Use, for
	// utilization reporting.
	BusyTime time.Duration
}

// Waits counts one class's grants at a Resource and the time its waiters
// spent queued for them.
type Waits struct {
	Grants int64         // slots granted
	Queued time.Duration // total time from Acquire to grant
}

// Add accumulates o into w.
func (w *Waits) Add(o Waits) {
	w.Grants += o.Grants
	w.Queued += o.Queued
}

// Sub returns w minus o: the grants and queueing between two reads.
func (w Waits) Sub(o Waits) Waits {
	return Waits{Grants: w.Grants - o.Grants, Queued: w.Queued - o.Queued}
}

// NewResource creates a resource with the given capacity (>= 1).
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{env: e, name: name, cap: capacity}
}

// Acquire obtains one capacity slot, blocking while the resource is full
// until Release hands p one in its class's turn.
func (r *Resource) Acquire(p *Proc) {
	c := p.class
	w := &r.waits[c]
	if r.inUse < r.cap {
		r.inUse++
		w.Grants++
		return
	}
	start := r.env.now
	r.waiters[c] = append(r.waiters[c], p)
	p.park()
	// The releaser transferred its slot to us; inUse stays constant.
	w.Grants++
	w.Queued += r.env.now - start
}

// Release frees one slot, handing it to the oldest foreground waiter, else
// to the oldest background waiter, if any.
func (r *Resource) Release() {
	for c := range r.waiters {
		q := r.waiters[c]
		if len(q) == 0 {
			continue
		}
		w := q[0]
		copy(q, q[1:])
		r.waiters[c] = q[:len(q)-1]
		r.env.wakeAt(w, r.env.now)
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d, then releases it.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	r.BusyTime += d
	p.Sleep(d)
	r.Release()
}

// QueueLen returns the number of blocked waiters.
func (r *Resource) QueueLen() int {
	n := 0
	for _, q := range r.waiters {
		n += len(q)
	}
	return n
}

// Waits returns class c's grants and queueing so far. Counting them
// schedules nothing.
func (r *Resource) Waits(c Class) Waits { return r.waits[c] }
