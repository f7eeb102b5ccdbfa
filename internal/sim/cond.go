//go:build go1.23

package sim

// Cond is a broadcast-only condition variable: processes Wait, and any code
// running in the simulation (process or scheduler context) may Broadcast to
// wake all current waiters at the current virtual time. There is no spurious
// wakeup, but state can change between wake and resume, so callers should
// re-check their predicate in a loop.
type Cond struct {
	env     *Env
	waiters []*Proc
}

// NewCond returns a Cond bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait suspends p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.env.wakeAt(p, c.env.now)
	}
	c.waiters = nil
}

// Waiters returns the number of blocked processes.
func (c *Cond) Waiters() int { return len(c.waiters) }
