package obs

import (
	"bytes"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/wire"
)

// runTracedWorkload drives a tiny deterministic sim under a tracer: two
// sampled ops, each with nested rpc/device children crossing a spawned
// child proc.
func runTracedWorkload(t *testing.T, sample int) []Span {
	t.Helper()
	env := sim.NewEnv()
	tr := NewTracer(env, sample)
	for i := 0; i < 4; i++ {
		env.Go("op", func(p *sim.Proc) {
			fin := tr.StartOp(p, OpUpdate, 100, "op:update")
			rpcFin := SpanOn(p, StageNetwork, "rpc:Update", 3)
			p.Sleep(2 * time.Millisecond)
			devFin := SpanOn(p, StageDevice, "dev:write", 3)
			p.Sleep(5 * time.Millisecond)
			devFin()
			// Fan out a child proc that inherits the trace.
			child := env.Go("fanout", func(cp *sim.Proc) {
				cfin := SpanOn(cp, StageService, "fanout-leg", 4)
				cp.Sleep(time.Millisecond)
				cfin()
			})
			Inherit(child, p)
			p.Sleep(3 * time.Millisecond)
			rpcFin()
			fin()
		})
	}
	env.RunTest(t)
	env.Close()
	return tr.Spans()
}

func TestTraceDeterminism(t *testing.T) {
	a := Encode(runTracedWorkload(t, 2))
	b := Encode(runTracedWorkload(t, 2))
	if len(a) == 0 {
		t.Fatal("no spans recorded")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ:\n%s\nvs\n%s", a, b)
	}
}

func TestSamplingCountsOps(t *testing.T) {
	spans := runTracedWorkload(t, 2)
	tvs := GroupTraces(spans)
	if len(tvs) != 2 {
		t.Fatalf("sample=2 over 4 ops: %d traces, want 2", len(tvs))
	}
	if spans2 := runTracedWorkload(t, 0); len(spans2) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(spans2))
	}
}

func TestBreakdownSumsExactly(t *testing.T) {
	for _, tv := range GroupTraces(runTracedWorkload(t, 1)) {
		bd := tv.Breakdown()
		var sum time.Duration
		for _, d := range bd {
			sum += d
		}
		if sum != tv.Duration() {
			t.Fatalf("trace %d: stage sum %v != e2e %v (breakdown %v)",
				tv.Trace, sum, tv.Duration(), bd)
		}
		// Deepest-wins: the 5ms device span and the 1ms fan-out leg nested
		// in the 10ms rpc span must be charged to their own stages, and the
		// rpc keeps only what nothing deeper covers.
		if bd[StageDevice] != 5*time.Millisecond {
			t.Fatalf("device stage %v, want 5ms", bd[StageDevice])
		}
		if bd[StageService] != time.Millisecond {
			t.Fatalf("service stage %v, want 1ms", bd[StageService])
		}
		if bd[StageNetwork] != 4*time.Millisecond {
			t.Fatalf("network stage %v, want 4ms (rpc minus nested spans)", bd[StageNetwork])
		}
	}
}

func TestDominantAndTopSignatures(t *testing.T) {
	tvs := GroupTraces(runTracedWorkload(t, 1))
	if len(tvs) == 0 {
		t.Fatal("no traces")
	}
	sig, d := tvs[0].Dominant()
	if sig != "device:dev:write" || d != 5*time.Millisecond {
		t.Fatalf("dominant %q %v, want device:dev:write 5ms", sig, d)
	}
	top := TopSignatures(tvs, 0, 3)
	if len(top) == 0 || top[0].Sig != "device:dev:write" || top[0].N != len(tvs) {
		t.Fatalf("top signatures %v", top)
	}
	if got := TopSignatures(tvs, time.Hour, 3); len(got) != 0 {
		t.Fatalf("threshold above every e2e still returned %v", got)
	}
}

// TestHopsSumToDuration: per-signature exclusive times add up to the
// trace's end-to-end time, and spans sharing a signature pool their time.
func TestHopsSumToDuration(t *testing.T) {
	env := sim.NewEnv()
	tr := NewTracer(env, 1)
	env.Go("op", func(p *sim.Proc) {
		fin := tr.StartOp(p, OpUpdate, 1, "op:update")
		for i := 0; i < 2; i++ {
			devFin := SpanOn(p, StageDevice, "dev:write", 1)
			p.Sleep(2 * time.Millisecond)
			devFin()
			p.Sleep(time.Millisecond)
		}
		fin()
	})
	env.RunTest(t)
	env.Close()
	tvs := GroupTraces(tr.Spans())
	if len(tvs) != 1 {
		t.Fatalf("%d traces, want 1", len(tvs))
	}
	hops := tvs[0].Hops()
	var sum time.Duration
	for _, d := range hops {
		sum += d
	}
	if sum != tvs[0].Duration() {
		t.Fatalf("hop sum %v != e2e %v (%v)", sum, tvs[0].Duration(), hops)
	}
	if hops["device:dev:write"] != 4*time.Millisecond || hops["client:op:update"] != 2*time.Millisecond {
		t.Fatalf("hops %v, want device:dev:write 4ms and client:op:update 2ms", hops)
	}
	for _, tv := range GroupTraces(runTracedWorkload(t, 1)) {
		sum = 0
		for _, d := range tv.Hops() {
			sum += d
		}
		if sum != tv.Duration() {
			t.Fatalf("trace %d: hop sum %v != e2e %v", tv.Trace, sum, tv.Duration())
		}
	}
}

func TestResumeLinksRemoteSpans(t *testing.T) {
	env := sim.NewEnv()
	tr := NewTracer(env, 1)
	var childSpan Span
	env.Go("client", func(p *sim.Proc) {
		fin := tr.StartOp(p, OpRead, 1, "op:read")
		a, _ := FromProc(p)
		rpc, rpcFin := a.Child(MsgStage(&wire.ReadBlock{}, StageNetwork), "rpc:ReadBlock", 2)
		ctx := rpc.Ctx()
		// "Remote side": resume from the wire context.
		h := Resume(tr, ctx, MsgStage(&wire.ReadBlock{}, StageService))
		_, hFin := h.Child(StageDevice, "dev:read", 2)
		p.Sleep(time.Millisecond)
		hFin()
		rpcFin()
		fin()
	})
	env.RunTest(t)
	env.Close()
	for _, s := range tr.Spans() {
		if s.Name == "dev:read" {
			childSpan = s
		}
	}
	if childSpan.ID == 0 {
		t.Fatal("remote child span not recorded")
	}
	tvs := GroupTraces(tr.Spans())
	if len(tvs) != 1 || len(tvs[0].Spans) != 3 {
		t.Fatalf("trace grouping: %+v", tvs)
	}
	if bd := tvs[0].Breakdown(); bd[StageDevice] != time.Millisecond {
		t.Fatalf("device %v, want 1ms", bd[StageDevice])
	}
	// Admission/journal RPCs classify away from the generic network stage.
	if MsgStage(&wire.AdmitOp{}, StageNetwork) != StageAdmission || MsgStage(&wire.JournalReplica{}, StageService) != StageJournal ||
		MsgStage(&wire.ReadBlock{}, StageService) != StageService {
		t.Fatal("RPC stage classification broken")
	}
}

func TestSamplerStops(t *testing.T) {
	env := sim.NewEnv()
	ticks := 0
	s := StartSampler(env, time.Second, func(now time.Duration) {
		ticks++
		if ticks == 3 {
			// Stop from inside a tick: the loop must wind down and the
			// drain below must terminate.
		}
	})
	env.After(3500*time.Millisecond, func() { s.Stop() })
	env.RunTest(t)
	env.Close()
	if ticks != 3 {
		t.Fatalf("ticks %d, want 3 (1s, 2s, 3s then stopped at 3.5s)", ticks)
	}
}
