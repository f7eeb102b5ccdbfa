package obs

import (
	"time"

	"tsue/internal/sim"
)

// Sampler drives a collection callback at a fixed virtual-time period,
// turning cumulative state (resource busy time) into per-period samples the
// callback's owner keeps. Each tick is an ordinary env event, so it runs in timestamp order
// with everything else whether the env is driven by Env.Run or stepped with
// ProcessNextEvent.
//
// A sampler keeps the event queue nonempty by design, so it MUST be
// Stop()ed before the final drain (an unbounded Env.Run would otherwise
// never terminate).
type Sampler struct {
	env     *sim.Env
	period  time.Duration
	fn      func(now time.Duration)
	stopped bool
}

// StartSampler begins sampling: fn fires every period of virtual time,
// starting one period from now, until Stop.
func StartSampler(env *sim.Env, period time.Duration, fn func(now time.Duration)) *Sampler {
	if period <= 0 {
		panic("obs: sampler period must be positive")
	}
	s := &Sampler{env: env, period: period, fn: fn}
	s.tick()
	return s
}

func (s *Sampler) tick() {
	s.env.After(s.period, func() {
		if s.stopped {
			return
		}
		s.fn(s.env.Now())
		s.tick()
	})
}

// Stop cancels future ticks (the already-scheduled one fires as a no-op).
func (s *Sampler) Stop() { s.stopped = true }
