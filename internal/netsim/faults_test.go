package netsim

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Satellite regression: accessors handed an unregistered NodeID must error
// (or report a zero value), never panic on the nil map entry.
func TestUnknownNodeAccessors(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(1, echoHandler)

	if err := f.SetHandler(99, echoHandler); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetHandler unknown: err=%v", err)
	}
	if err := f.SetDown(99, true); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetDown unknown: err=%v", err)
	}
	if f.Down(99) {
		t.Fatal("Down(unknown) = true")
	}
	if st := f.NodeStats(99); st != (Stats{}) {
		t.Fatalf("NodeStats(unknown) = %+v", st)
	}
	if err := f.SetLink(1, 99, LinkShape{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetLink unknown: err=%v", err)
	}
	if err := f.SetNodeShape(99, LinkShape{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetNodeShape unknown: err=%v", err)
	}
	if err := f.Partition(99, 1, true); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Partition unknown: err=%v", err)
	}
	if err := f.ScheduleFlap(99, 0, time.Millisecond, 2*time.Millisecond, 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("ScheduleFlap unknown: err=%v", err)
	}
	// Known node still works through the new signatures.
	if err := f.SetDown(1, true); err != nil || !f.Down(1) {
		t.Fatalf("SetDown known: err=%v down=%v", err, f.Down(1))
	}
	if err := f.SetDown(1, false); err != nil || f.Down(1) {
		t.Fatal("SetDown restore failed")
	}
}

// Satellite: table-driven resolution order for link overrides —
// link-specific > node-specific (sender before receiver for latency, NIC
// owner for bandwidth) > fabric default — including the zero-value edge
// cases (Bandwidth 0 / Latency nil inherit; Fixed(0) and +Inf are explicit).
func TestLinkShapeResolution(t *testing.T) {
	base := Params{Bandwidth: 1e6, BaseLat: 100 * time.Microsecond}
	type tc struct {
		name    string
		src     LinkShape // node shape of node 0 (sender)
		dst     LinkShape // node shape of node 1 (receiver)
		link    *LinkShape
		wantLat time.Duration
		wantSrc float64 // bandwidth charged at node 0's NIC for 0->1
		wantDst float64 // bandwidth charged at node 1's NIC for 0->1
	}
	cases := []tc{
		{
			name:    "all default",
			wantLat: base.BaseLat, wantSrc: base.Bandwidth, wantDst: base.Bandwidth,
		},
		{
			name: "sender node shape",
			src:  LinkShape{Bandwidth: 5e5, Latency: Fixed(time.Millisecond)},
			// Sender's latency applies to the hop; only the sender's NIC leg
			// slows down — the receiver's NIC is healthy.
			wantLat: time.Millisecond, wantSrc: 5e5, wantDst: base.Bandwidth,
		},
		{
			name:    "receiver node shape",
			dst:     LinkShape{Bandwidth: 2e5, Latency: Fixed(2 * time.Millisecond)},
			wantLat: 2 * time.Millisecond, wantSrc: base.Bandwidth, wantDst: 2e5,
		},
		{
			name:    "sender latency beats receiver latency",
			src:     LinkShape{Latency: Fixed(3 * time.Millisecond)},
			dst:     LinkShape{Latency: Fixed(7 * time.Millisecond)},
			wantLat: 3 * time.Millisecond, wantSrc: base.Bandwidth, wantDst: base.Bandwidth,
		},
		{
			name:    "link override beats node shapes",
			src:     LinkShape{Bandwidth: 5e5, Latency: Fixed(time.Millisecond)},
			dst:     LinkShape{Bandwidth: 2e5, Latency: Fixed(2 * time.Millisecond)},
			link:    &LinkShape{Bandwidth: 4e6, Latency: Fixed(10 * time.Microsecond)},
			wantLat: 10 * time.Microsecond, wantSrc: 4e6, wantDst: 4e6,
		},
		{
			name: "link zero bandwidth inherits node then default",
			src:  LinkShape{Bandwidth: 5e5},
			link: &LinkShape{Latency: Fixed(time.Millisecond)},
			// Link sets only latency; bandwidth falls through to the NIC
			// owner's node shape (sender leg) or the default (receiver leg).
			wantLat: time.Millisecond, wantSrc: 5e5, wantDst: base.Bandwidth,
		},
		{
			name: "link nil latency inherits node then default",
			dst:  LinkShape{Latency: Fixed(4 * time.Millisecond)},
			link: &LinkShape{Bandwidth: 9e6},
			// Link sets only bandwidth; latency falls through to the
			// receiver's node shape (sender has none).
			wantLat: 4 * time.Millisecond, wantSrc: 9e6, wantDst: 9e6,
		},
		{
			name:    "explicit zero latency",
			src:     LinkShape{Latency: Fixed(5 * time.Millisecond)},
			link:    &LinkShape{Latency: Fixed(0)},
			wantLat: 0, wantSrc: base.Bandwidth, wantDst: base.Bandwidth,
		},
		{
			name:    "infinite bandwidth is explicit, not inherit",
			link:    &LinkShape{Bandwidth: math.Inf(1)},
			wantLat: base.BaseLat, wantSrc: math.Inf(1), wantDst: math.Inf(1),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEnv()
			f := New(e, base)
			f.AddNode(0, nil)
			f.AddNode(1, echoHandler)
			if err := f.SetNodeShape(0, c.src); err != nil {
				t.Fatal(err)
			}
			if err := f.SetNodeShape(1, c.dst); err != nil {
				t.Fatal(err)
			}
			if c.link != nil {
				if err := f.SetLink(0, 1, *c.link); err != nil {
					t.Fatal(err)
				}
			}
			src, dst := f.nodes[0], f.nodes[1]
			if got := f.latency(src, dst); got != c.wantLat {
				t.Errorf("latency(0->1) = %v, want %v", got, c.wantLat)
			}
			if got := f.bandwidth(src, dst, src); got != c.wantSrc {
				t.Errorf("bandwidth(0->1 at 0) = %v, want %v", got, c.wantSrc)
			}
			if got := f.bandwidth(src, dst, dst); got != c.wantDst {
				t.Errorf("bandwidth(0->1 at 1) = %v, want %v", got, c.wantDst)
			}
		})
	}
}

func TestStragglerNodeSlowsRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	if err := f.SetNodeShape(1, LinkShape{Latency: Fixed(5 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	var rtt time.Duration
	e.Go("c", func(p *sim.Proc) {
		start := p.Now()
		if _, err := f.Call(p, 0, 1, &wire.Drain{}); err != nil {
			t.Error(err)
		}
		rtt = p.Now() - start
	})
	e.RunTest(t)
	// Both hops route through the straggler's latency (it is receiver on the
	// request, sender on the response).
	if rtt < 10*time.Millisecond {
		t.Fatalf("straggler RTT %v < 10ms", rtt)
	}
	// Clearing the shape restores the fast path.
	if err := f.SetNodeShape(1, LinkShape{}); err != nil {
		t.Fatal(err)
	}
	e.Go("c2", func(p *sim.Proc) {
		start := p.Now()
		f.Call(p, 0, 1, &wire.Drain{})
		rtt = p.Now() - start
	})
	e.RunTest(t)
	if rtt > time.Millisecond {
		t.Fatalf("healed RTT %v still slow", rtt)
	}
}

func TestAsymmetricPartition(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	handled := map[wire.NodeID]int{}
	counting := func(id wire.NodeID) Handler {
		return func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			handled[id]++
			return wire.OK
		}
	}
	f.AddNode(0, counting(0))
	f.AddNode(1, counting(1))

	// One-way wire cut 0 -> 1. Both RPC directions fail (an RPC needs both
	// wire directions), but asymmetrically: 0's requests die on the wire —
	// node 1's handler never runs — while 1's requests ARE delivered and
	// applied on node 0; only the ack dies crossing 0 -> 1. The caller of
	// the reverse RPC cannot tell whether its operation was applied.
	if err := f.Partition(0, 1, true); err != nil {
		t.Fatal(err)
	}
	e.Go("c", func(p *sim.Proc) {
		if _, err := f.Call(p, 0, 1, &wire.Drain{}); !errors.Is(err, ErrPartitioned) {
			t.Errorf("forward call err=%v, want ErrPartitioned", err)
		}
		if _, err := f.Call(p, 1, 0, &wire.Drain{}); !errors.Is(err, ErrPartitioned) {
			t.Errorf("reverse call err=%v, want ErrPartitioned (ack crosses the cut)", err)
		}
	})
	e.RunTest(t)
	if handled[1] != 0 {
		t.Fatalf("node 1 handler ran %d times across a request-direction cut", handled[1])
	}
	if handled[0] != 1 {
		t.Fatalf("node 0 handler ran %d times, want 1 (request delivered, ack lost)", handled[0])
	}
	if !f.Partitioned(0, 1) || f.Partitioned(1, 0) {
		t.Fatal("Partitioned() direction wrong")
	}

	// Heal and verify both directions flow again.
	if err := f.Partition(0, 1, false); err != nil {
		t.Fatal(err)
	}
	e.Go("c2", func(p *sim.Proc) {
		if _, err := f.Call(p, 0, 1, &wire.Drain{}); err != nil {
			t.Errorf("healed forward call err=%v", err)
		}
		if _, err := f.Call(p, 1, 0, &wire.Drain{}); err != nil {
			t.Errorf("healed reverse call err=%v", err)
		}
	})
	e.RunTest(t)
	if handled[0] != 2 || handled[1] != 1 {
		t.Fatalf("healed handler counts = %v, want node0:2 node1:1", handled)
	}
}

func TestScheduleFlap(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	// Down windows: [1ms, 1.5ms) and [3ms, 3.5ms).
	if err := f.ScheduleFlap(1, time.Millisecond, 500*time.Microsecond, 2*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	probe := func(p *sim.Proc, at time.Duration, wantDown bool) {
		p.Sleep(at - p.Now())
		_, err := f.Call(p, 0, 1, &wire.Drain{})
		if wantDown && !errors.Is(err, ErrNodeDown) {
			t.Errorf("t=%v: err=%v, want ErrNodeDown", at, err)
		}
		if !wantDown && err != nil {
			t.Errorf("t=%v: err=%v, want nil", at, err)
		}
	}
	e.Go("c", func(p *sim.Proc) {
		probe(p, 200*time.Microsecond, false) // before first flap
		probe(p, 1200*time.Microsecond, true) // first down window
		probe(p, 1700*time.Microsecond, false)
		probe(p, 3200*time.Microsecond, true) // second down window
		probe(p, 3700*time.Microsecond, false)
	})
	e.RunTest(t)

	if err := f.ScheduleFlap(1, 0, 0, time.Millisecond, 1); err == nil {
		t.Fatal("zero downFor accepted")
	}
	if err := f.ScheduleFlap(1, 0, 2*time.Millisecond, time.Millisecond, 2); err == nil {
		t.Fatal("period <= downFor accepted for multi-cycle flap")
	}
}

func TestCorruptorFlipsPayloadCopy(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	var got []byte
	f.AddNode(0, echoHandler)
	f.AddNode(1, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
		got = m.(*wire.PutBlock).Data
		return wire.OK
	})
	f.SetCorruptor(func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool) {
		pb, ok := m.(*wire.PutBlock)
		if !ok {
			return m, false
		}
		c := *pb
		c.Data = bytes.Clone(pb.Data)
		c.Data[0] ^= 0xff
		return &c, true
	})
	orig := []byte{1, 2, 3, 4}
	sent := bytes.Clone(orig)
	e.Go("c", func(p *sim.Proc) {
		if _, err := f.Call(p, 0, 1, &wire.PutBlock{Data: sent}); err != nil {
			t.Error(err)
		}
	})
	e.RunTest(t)
	if bytes.Equal(got, orig) {
		t.Fatal("corruptor did not mutate the delivered payload")
	}
	if !bytes.Equal(sent, orig) {
		t.Fatal("corruptor mutated the sender's buffer")
	}
	if f.CorruptionsInjected() != 1 {
		t.Fatalf("injected=%d, want 1", f.CorruptionsInjected())
	}

	// Loopback traffic is exempt: it never crosses a wire.
	e.Go("lb", func(p *sim.Proc) {
		if _, err := f.Call(p, 0, 0, &wire.PutBlock{Data: bytes.Clone(orig)}); err != nil {
			t.Error(err)
		}
	})
	e.RunTest(t)
	if f.CorruptionsInjected() != 1 {
		t.Fatalf("loopback corrupted: injected=%d", f.CorruptionsInjected())
	}

	f.ResetStats()
	if f.CorruptionsInjected() != 0 {
		t.Fatal("ResetStats kept corruption count")
	}
}

func TestLognormalTail(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := Lognormal{Median: time.Millisecond, Sigma: 1.5}
	n := 4000
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = d.Sample(r)
		if samples[i] < 0 {
			t.Fatal("negative latency sample")
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[n/2]
	if med < time.Millisecond/2 || med > 2*time.Millisecond {
		t.Fatalf("sample median %v far from configured 1ms", med)
	}
	p99 := samples[n*99/100]
	// Sigma 1.5 puts p99 at exp(1.5*2.33) ~ 33x the median.
	if p99 < 10*med {
		t.Fatalf("p99 %v shows no heavy tail (median %v)", p99, med)
	}
}
