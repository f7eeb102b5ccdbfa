//go:build go1.23

package sim

// Queue is an unbounded FIFO message queue for inter-process communication
// (node mailboxes, RPC response slots). Get blocks while the queue is empty;
// Put never blocks. A closed queue returns ok=false to blocked and future
// getters once drained.
type Queue[T any] struct {
	env     *Env
	items   []T
	waiters []*getWaiter[T]
	closed  bool
	dropped int
}

type getWaiter[T any] struct {
	p     *Proc
	val   T
	ok    bool
	woken bool
}

// NewQueue creates an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] {
	return &Queue[T]{env: e}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v, handing it directly to the oldest blocked getter if any.
// Putting to a closed queue is a counted drop, not a panic: an in-flight
// delivery racing node teardown (e.g. a netsim response arriving after a
// kill) must not crash the whole simulation. Drops are visible through
// Dropped on the queue and DroppedPuts on the environment.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		q.dropped++
		q.env.droppedPuts++
		return
	}
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		w.val, w.ok, w.woken = v, true, true
		q.env.wakeAt(w.p, q.env.now)
		return
	}
	q.items = append(q.items, v)
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	if len(q.items) > 0 {
		v = q.items[0]
		copy(q.items, q.items[1:])
		var zero T
		q.items[len(q.items)-1] = zero
		q.items = q.items[:len(q.items)-1]
		return v, true
	}
	if q.closed {
		return v, false
	}
	w := &getWaiter[T]{p: p}
	q.waiters = append(q.waiters, w)
	p.park()
	return w.val, w.ok
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	copy(q.items, q.items[1:])
	var zero T
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return v, true
}

// Close marks the queue closed and wakes all blocked getters with ok=false.
// Items buffered before Close stay retrievable: Get and TryGet drain them
// first and only then report the queue closed. Put after Close silently
// drops the value and increments the drop counters. Closing twice is a
// no-op.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		w.ok = false
		q.env.wakeAt(w.p, q.env.now)
	}
	q.waiters = nil
}

// Dropped returns the number of values discarded by Put after Close.
func (q *Queue[T]) Dropped() int { return q.dropped }

// WaitGroup counts outstanding work items; Wait blocks until the count
// reaches zero.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup bound to e.
func NewWaitGroup(e *Env) *WaitGroup { return &WaitGroup{env: e} }

// Add increments the counter by n.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter, waking waiters at zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.env.wakeAt(p, w.env.now)
		}
		w.waiters = nil
	}
}

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park()
}

// Parallel spawns n processes named name, in index order, runs fn(hp, i) in
// the i-th, and blocks p until all have returned. Each child starts with p's
// span annotation, so a traced parent's RPCs stay in its trace, and with
// p's class, so background work fans out as background work. The result
// is the first non-nil error in completion order.
func Parallel(p *Proc, name string, n int, fn func(hp *Proc, i int) error) error {
	if n == 0 {
		return nil
	}
	wg := NewWaitGroup(p.env)
	wg.Add(n)
	var firstErr error
	for i := 0; i < n; i++ {
		c := p.env.Go(name, func(hp *Proc) {
			if err := fn(hp, i); err != nil && firstErr == nil {
				firstErr = err
			}
			wg.Done()
		})
		c.span, c.class = p.span, p.class
	}
	wg.Wait(p)
	return firstErr
}
