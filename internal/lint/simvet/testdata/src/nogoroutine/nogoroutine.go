// Package nogoroutine is the nogoroutine fixture: raw concurrency in a
// kernel-scoped unit must be flagged; sim-style spawn calls and justified
// escapes must stay quiet.
package nogoroutine

import (
	"iter"        // want "import iter in kernel package"
	"sync"        // want "import sync in kernel package"
	"sync/atomic" // want "import sync/atomic in kernel package"
)

type env struct{}

// Go mimics sim.Env.Go.
func (env) Go(name string, fn func()) { fn() }

// spawn uses the sim-style spawn method: a method named Go is not a go
// statement and must stay quiet.
func spawn(e env) {
	e.Go("worker", func() {})
}

func raw() {
	var mu sync.Mutex
	mu.Lock()
	go func() {}() // want "go statement in kernel package"
	mu.Unlock()
}

func channels(c chan int) { // want "channel type in kernel package"
	c <- 1   // want "channel send in kernel package"
	<-c      // want "channel receive in kernel package"
	select { // want "select in kernel package"
	default:
	}
}

// coroutine switches between two bodies outside the event queue; the import
// is the finding, so the calls themselves add none.
func coroutine() {
	next, stop := iter.Pull(func(yield func(int) bool) { yield(1) })
	next()
	stop()
}

func allowedChan() {
	//lint:allow nogoroutine(fixture: kernel-internal plumbing under test)
	ch := make(chan struct{})
	close(ch)
}
