package netsim

import (
	"errors"
	"testing"
	"time"

	"tsue/internal/obs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

func echoHandler(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
	return wire.OK
}

func TestCallRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	var resp wire.Msg
	var err error
	e.Go("c", func(p *sim.Proc) {
		resp, err = f.Call(p, 0, 1, &wire.Lookup{Ino: 1})
	})
	e.RunTest(t)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.Ack); !ok {
		t.Fatalf("resp %T", resp)
	}
}

func TestCallLatency(t *testing.T) {
	e := sim.NewEnv()
	p := Params{Bandwidth: 1e9, BaseLat: 100 * time.Microsecond}
	f := New(e, p)
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	var done time.Duration
	e.Go("c", func(pr *sim.Proc) {
		f.Call(pr, 0, 1, &wire.Drain{}) // 40-byte frame
		done = pr.Now()
	})
	e.RunTest(t)
	// >= 2 base latencies plus four transfer legs of 40ns each.
	if done < 2*p.BaseLat {
		t.Fatalf("RTT %v < 2x base", done)
	}
	if done > 2*p.BaseLat+time.Millisecond {
		t.Fatalf("RTT %v unreasonably high", done)
	}
}

func TestBandwidthDominatesLargeTransfers(t *testing.T) {
	e := sim.NewEnv()
	p := Params{Bandwidth: 1e6, BaseLat: time.Microsecond} // 1 MB/s
	f := New(e, p)
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	var done time.Duration
	e.Go("c", func(pr *sim.Proc) {
		f.Call(pr, 0, 1, &wire.PutBlock{Blk: wire.BlockID{}, Data: make([]byte, 1<<20)})
		done = pr.Now()
	})
	e.RunTest(t)
	// 1 MiB at 1 MB/s: ~1.05s on tx and again on rx.
	if done < 2*time.Second {
		t.Fatalf("large transfer took %v, want >= ~2.1s", done)
	}
}

func TestNICContention(t *testing.T) {
	// Two concurrent sends from one node serialize on its TX NIC.
	e := sim.NewEnv()
	p := Params{Bandwidth: 1e6, BaseLat: 0}
	f := New(e, p)
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	f.AddNode(2, echoHandler)
	var t1, t2 time.Duration
	e.Go("a", func(pr *sim.Proc) {
		f.Call(pr, 0, 1, &wire.PutBlock{Data: make([]byte, 1e6)})
		t1 = pr.Now()
	})
	e.Go("b", func(pr *sim.Proc) {
		f.Call(pr, 0, 2, &wire.PutBlock{Data: make([]byte, 1e6)})
		t2 = pr.Now()
	})
	e.RunTest(t)
	last := t1
	if t2 > last {
		last = t2
	}
	if last < 2*time.Second {
		t.Fatalf("TX contention not modeled: finished at %v", last)
	}
}

func TestTrafficAccounting(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	msg := &wire.Update{Blk: wire.BlockID{Ino: 1, Stripe: 2, Index: 3}, Data: make([]byte, 100)}
	e.Go("c", func(p *sim.Proc) {
		f.Call(p, 0, 1, msg)
	})
	e.RunTest(t)
	want := wire.SizeOf(msg) + wire.SizeOf(wire.OK)
	if f.TotalStats().BytesSent != want {
		t.Fatalf("total=%d want %d", f.TotalStats().BytesSent, want)
	}
	if f.NodeStats(0).BytesSent != wire.SizeOf(msg) {
		t.Fatal("sender accounting wrong")
	}
	if f.NodeStats(1).BytesRecv != wire.SizeOf(msg) {
		t.Fatal("receiver accounting wrong")
	}
}

func TestLoopbackSkipsNIC(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, echoHandler)
	e.Go("c", func(p *sim.Proc) {
		if _, err := f.Call(p, 0, 0, &wire.Drain{}); err != nil {
			t.Error(err)
		}
	})
	e.RunTest(t)
	if f.TotalStats().BytesSent != 0 {
		t.Fatal("loopback charged the network")
	}
}

func TestDownNode(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	f.AddNode(1, echoHandler)
	f.SetDown(1, true)
	var err error
	e.Go("c", func(p *sim.Proc) {
		_, err = f.Call(p, 0, 1, &wire.Drain{})
	})
	e.RunTest(t)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err=%v", err)
	}
	f.SetDown(1, false)
	e2 := sim.NewEnv()
	_ = e2
	e.Go("c2", func(p *sim.Proc) {
		_, err = f.Call(p, 0, 1, &wire.Drain{})
	})
	e.RunTest(t)
	if err != nil {
		t.Fatalf("restored node unreachable: %v", err)
	}
}

func TestNestedCallFromHandler(t *testing.T) {
	// Node 1's handler calls node 2 before responding (the common OSD
	// forwarding pattern).
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	f.AddNode(2, echoHandler)
	f.AddNode(1, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
		resp, err := f.Call(p, 1, 2, &wire.Drain{})
		if err != nil {
			return &wire.Ack{Err: err}
		}
		return resp
	})
	var resp wire.Msg
	e.Go("c", func(p *sim.Proc) {
		resp, _ = f.Call(p, 0, 1, &wire.Lookup{Ino: 1})
	})
	e.RunTest(t)
	if _, ok := resp.(*wire.Ack); !ok || wire.AckErr(resp, nil) != nil {
		t.Fatalf("nested call failed: %#v", resp)
	}
}

// TestTracedRPCSpans pins the spans a traced call records: the sender's wire
// span "rpc:<message>" and the receiver's handler span "handle:<message>"
// under it, each at the stage obs classifies the message under. A call made
// outside any traced op records nothing.
func TestTracedRPCSpans(t *testing.T) {
	call := func(t *testing.T, req wire.Msg, traced bool) []obs.Span {
		e := sim.NewEnv()
		f := New(e, Ethernet25G())
		tr := obs.NewTracer(e, 1)
		f.SetTracer(tr)
		f.AddNode(0, nil)
		f.AddNode(1, echoHandler)
		e.Go("c", func(p *sim.Proc) {
			if traced {
				defer tr.StartOp(p, obs.OpUpdate, 0, "op:update")()
			}
			if _, err := f.Call(p, 0, 1, req); err != nil {
				t.Error(err)
			}
		})
		e.RunTest(t)
		return tr.Spans()
	}
	cases := []struct {
		req          wire.Msg
		rpc, handler obs.Stage
	}{
		{&wire.Update{}, obs.StageNetwork, obs.StageService},
		{&wire.AdmitOp{}, obs.StageAdmission, obs.StageAdmission},
		{&wire.JournalReplica{}, obs.StageJournal, obs.StageJournal},
	}
	for _, c := range cases {
		name := wire.Name(c.req)
		t.Run(name, func(t *testing.T) {
			spans := call(t, c.req, true)
			byName := make(map[string]obs.Span, len(spans))
			for _, s := range spans {
				byName[s.Name] = s
			}
			root, rpc, h := byName["op:update"], byName["rpc:"+name], byName["handle:"+name]
			if len(spans) != 3 || root.ID == 0 || rpc.ID == 0 || h.ID == 0 {
				t.Fatalf("spans %+v, want op:update, rpc:%s and handle:%s", spans, name, name)
			}
			if rpc.Parent != root.ID || rpc.Stage != c.rpc || rpc.Node != 1 {
				t.Errorf("rpc span %+v, want parent %d, stage %v, node 1", rpc, root.ID, c.rpc)
			}
			if h.Parent != rpc.ID || h.Stage != c.handler || h.Node != 1 {
				t.Errorf("handler span %+v, want parent %d, stage %v, node 1", h, rpc.ID, c.handler)
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		if spans := call(t, &wire.Update{}, false); len(spans) != 0 {
			t.Fatalf("untraced call recorded %+v", spans)
		}
	})
}

func TestUnknownNode(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, Ethernet25G())
	f.AddNode(0, nil)
	var err error
	e.Go("c", func(p *sim.Proc) {
		_, err = f.Call(p, 0, 99, &wire.Drain{})
	})
	e.RunTest(t)
	if err == nil {
		t.Fatal("call to unknown node succeeded")
	}
}
