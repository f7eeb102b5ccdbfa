package obs

// Registry is a name-keyed store of monotone counters. Get-or-create
// lookups are map hits; hot paths cache the returned pointer once and pay a
// bare field increment per event, which is what makes migrating per-op
// stats here free.
//
// Everything runs under the sim kernel's one-runnable-goroutine discipline,
// so the registry needs no locking and no atomics.
type Registry struct {
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter is a monotone event counter.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Counter returns the counter registered under name, creating it at zero on
// first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot evaluates every counter into one name -> value map.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.counters))
	for name, c := range r.counters {
		out[name] = float64(c.v)
	}
	return out
}
