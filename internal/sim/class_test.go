package sim_test

import (
	"slices"
	"testing"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// classWaiter is one proc that queues at a resource at a given instant.
type classWaiter struct {
	name  string
	class sim.Class
	at    time.Duration
}

// grantOrder runs a proc of class holder that takes a capacity-1 resource
// for 10 ms at time 0, then the waiters, each asking at its instant and
// holding the slot 1 ms. It returns the names in grant order and the
// resource.
func grantOrder(t *testing.T, holder sim.Class, ws []classWaiter) ([]string, *sim.Resource) {
	t.Helper()
	e := sim.NewEnv()
	r := e.NewResource("r", 1)
	var order []string
	h := e.Go("holder", func(p *sim.Proc) { r.Use(p, 10*time.Millisecond) })
	h.SetClass(holder)
	for _, w := range ws {
		p := e.Go(w.name, func(p *sim.Proc) {
			p.Sleep(w.at)
			r.Acquire(p)
			order = append(order, w.name)
			p.Sleep(time.Millisecond)
			r.Release()
		})
		p.SetClass(w.class)
	}
	e.RunTest(t)
	e.Close()
	return order, r
}

// TestResourceForegroundFirst: a freed slot goes to every queued
// foreground waiter, oldest first, before any background waiter, however
// long the background one has waited; the grants and queue waits are
// counted per class.
func TestResourceForegroundFirst(t *testing.T) {
	ms := time.Millisecond
	order, r := grantOrder(t, sim.Foreground, []classWaiter{
		{"bg1", sim.Background, 1 * ms},
		{"fg1", sim.Foreground, 2 * ms},
		{"bg2", sim.Background, 3 * ms},
		{"fg2", sim.Foreground, 4 * ms},
	})
	if want := []string{"fg1", "fg2", "bg1", "bg2"}; !slices.Equal(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	// Granted at 10, 11, 12 and 13 ms.
	if got, want := r.Waits(sim.Foreground), (sim.Waits{Grants: 3, Queued: 8*ms + 7*ms}); got != want {
		t.Errorf("foreground waits %+v, want %+v", got, want)
	}
	if got, want := r.Waits(sim.Background), (sim.Waits{Grants: 2, Queued: 11*ms + 10*ms}); got != want {
		t.Errorf("background waits %+v, want %+v", got, want)
	}
	if r.QueueLen() != 0 {
		t.Errorf("%d waiters left queued", r.QueueLen())
	}
}

// TestResourceBackgroundOnly: with only background waiters queued, a
// freed slot still goes to the oldest of them, and a free slot is taken at
// once by either class.
func TestResourceBackgroundOnly(t *testing.T) {
	ms := time.Millisecond
	order, r := grantOrder(t, sim.Background, []classWaiter{
		{"bg1", sim.Background, 1 * ms},
		{"bg2", sim.Background, 2 * ms},
		{"fg", sim.Foreground, 20 * ms}, // the resource is free again by then
	})
	if want := []string{"bg1", "bg2", "fg"}; !slices.Equal(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	if got, want := r.Waits(sim.Background), (sim.Waits{Grants: 3, Queued: 9*ms + 9*ms}); got != want {
		t.Errorf("background waits %+v, want %+v", got, want)
	}
	if got, want := r.Waits(sim.Foreground), (sim.Waits{Grants: 1}); got != want {
		t.Errorf("foreground waits %+v, want %+v", got, want)
	}
}

// TestClassInherited: a background proc's class reaches its Parallel
// children, theirs in turn, and the handler proc of every RPC they make,
// nested calls included. A foreground caller's handlers stay foreground.
func TestClassInherited(t *testing.T) {
	for _, class := range []sim.Class{sim.Foreground, sim.Background} {
		t.Run(class.String(), func(t *testing.T) {
			e := sim.NewEnv()
			f := netsim.New(e, netsim.Ethernet25G())
			var seen []sim.Class
			f.AddNode(1, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
				seen = append(seen, p.Class())
				return wire.OK
			})
			f.AddNode(2, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
				seen = append(seen, p.Class())
				if _, err := f.Call(p, 2, 1, wire.OK); err != nil {
					t.Error(err)
				}
				return wire.OK
			})
			root := e.Go("root", func(p *sim.Proc) {
				err := sim.Parallel(p, "outer", 2, func(op *sim.Proc, i int) error {
					seen = append(seen, op.Class())
					return sim.Parallel(op, "inner", 2, func(ip *sim.Proc, _ int) error {
						seen = append(seen, ip.Class())
						_, err := f.Call(ip, 3, wire.NodeID(1+i), wire.OK)
						return err
					})
				})
				if err != nil {
					t.Error(err)
				}
			})
			root.SetClass(class)
			f.AddNode(3, nil)
			e.RunTest(t)
			e.Close()
			// 2 outer + 4 inner children, 4 handlers, 2 nested handlers.
			if len(seen) != 12 {
				t.Fatalf("saw %d procs, want 12", len(seen))
			}
			for i, c := range seen {
				if c != class {
					t.Errorf("proc %d runs in class %v, want %v", i, c, class)
				}
			}
		})
	}
}
