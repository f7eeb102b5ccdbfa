// Package obs is the sim-time observability plane: a registry of monotone
// counters and a deterministic distributed tracer.
//
// Traces are built from spans stamped off the simulated clock, with span
// and trace ids drawn from monotone counters and sampling decided by an op
// counter — no wall clock and no randomness — so a trace set is a pure
// function of the workload seed. The trace context travels on wire
// messages as wire.SpanCtx (always encoded, traced or not, so enabling
// tracing never changes message sizes or simulated timing) and across
// process spawns through the opaque sim.Proc span slot.
//
// Stage attribution (views.go) turns a trace into a per-stage latency
// breakdown whose stage sums equal the op's end-to-end duration exactly:
// every elementary interval of the root span is charged to the deepest
// span active there.
package obs

import (
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// OpKind classifies the operation a trace was started for. The zero value
// OpNone marks "no kind" (and the untraced wire context).
type OpKind uint8

const (
	OpNone OpKind = iota
	// OpUpdate is a foreground client block update.
	OpUpdate
	// OpRead is a foreground client block read.
	OpRead
	// OpDegradedUpdate is a client update routed to a surrogate journal.
	OpDegradedUpdate
	// OpDegradedRead is a client read served through degraded-mode
	// reconstruction (including hedged retries).
	OpDegradedRead
	// OpRecovery is a background block reconstruction.
	OpRecovery
	// OpRecycle is a background log-recycle pass (TSUE DeltaLog/DataLog,
	// CoRD collector, PL/PLR log drain).
	OpRecycle

	// NOpKinds bounds the enum.
	NOpKinds
)

var opNames = [NOpKinds]string{
	"none", "update", "read", "degraded-update", "degraded-read",
	"recovery", "recycle",
}

func (k OpKind) String() string {
	if k < NOpKinds {
		return opNames[k]
	}
	return "op?"
}

// Stage classifies where an interval of an op's lifetime was spent. Spans
// carry a stage; the breakdown sweep charges each instant of a trace to the
// stage of the deepest span covering it.
type Stage uint8

const (
	// StageClient is submitter-side residual time: the root span's own
	// stage, winning whatever no deeper span covers (gate waits, retry
	// pauses, overload backoff between admission attempts).
	StageClient Stage = iota
	// StageAdmission is time spent obtaining admission from the MDS
	// (the AdmitOp round trip, including its network cost).
	StageAdmission
	// StageNetwork is RPC time outside any deeper stage: transfer,
	// propagation, and NIC queueing.
	StageNetwork
	// StageService is handler time on the receiving node outside any
	// deeper stage.
	StageService
	// StageJournal is log/journal persistence: surrogate-journal appends
	// and their quorum replication, and engine log-append device writes.
	StageJournal
	// StageCodec is erasure-coding compute (delta computation, parity
	// folds). The simulator charges device and network time but no codec
	// CPU, so codec spans are typically zero-width markers; they still
	// appear in traces so hop counts are visible.
	StageCodec
	// StageDevice is time charged by the disk model.
	StageDevice

	// NStages bounds the enum.
	NStages
)

var stageNames = [NStages]string{
	"client", "admission", "network", "service", "journal", "codec", "device",
}

func (s Stage) String() string {
	if s < NStages {
		return stageNames[s]
	}
	return "stage?"
}

// RPCStage classifies a traced RPC's wire span by message type: admission
// and journal-replication round trips are charged to their own stages, all
// other traffic to the network stage.
func RPCStage(m wire.Msg) Stage {
	switch m.(type) {
	case *wire.AdmitOp:
		return StageAdmission
	case *wire.JournalReplica:
		return StageJournal
	default:
		return StageNetwork
	}
}

// HandlerStage classifies a traced RPC's receiver-side handler span.
func HandlerStage(m wire.Msg) Stage {
	switch m.(type) {
	case *wire.AdmitOp:
		return StageAdmission
	case *wire.JournalReplica:
		return StageJournal
	default:
		return StageService
	}
}

// Obs bundles one simulator's observability plane: the metrics registry and
// the tracer. Both are always usable; a trace sample of 0 leaves the tracer
// disabled (StartOp and span helpers become no-ops) without changing any
// simulated behavior.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer
}

// New builds the plane for env. traceSample <= 0 disables tracing;
// traceSample == n traces every n-th sampled op.
func New(env *sim.Env, traceSample int) *Obs {
	return &Obs{Reg: NewRegistry(), Tracer: NewTracer(env, traceSample)}
}
