package cluster

import "errors"

// ErrOverload is the retryable sentinel for an op the MDS admission policy
// bounced: the cluster is past its configured queue-depth budget and the
// submitter should back off and retry (or count the rejection). Unlike the
// terminal sentinels (ErrClusterDegraded, ErrSurrogateLost) it promises
// nothing is wrong with the op itself — resubmitting later succeeds once
// load drains. The MDS sends it as the AdmitOp Ack's Err.
var ErrOverload = errors.New("cluster: admission rejected, overloaded")

// AdmissionPolicy decides, per foreground client op, whether the MDS admits
// it. inflight is the number of admitted ops not yet completed (the
// MDS-side queue depth). Policies run in simulation context — single-
// threaded, no locking needed — and must be deterministic in (call order,
// inflight).
type AdmissionPolicy interface {
	Admit(inflight int) bool
}

// TokenBucket is the standard AdmissionPolicy: queue-depth backpressure
// that bounces an op whenever MaxInflight admitted ops are still in flight.
// The zero value admits everything. The name is kept because the benchmark
// (bench/tsueperf) constructs it.
type TokenBucket struct {
	MaxInflight int // admitted-but-uncompleted cap (0 = unlimited)
}

// Admit rejects when the in-flight cap is hit.
func (tb *TokenBucket) Admit(inflight int) bool {
	return tb.MaxInflight <= 0 || inflight < tb.MaxInflight
}

// AdmissionStats is the cluster-wide admission counter snapshot.
type AdmissionStats struct {
	Admitted int64 // ops admitted by the policy
	Rejected int64 // ops bounced with ErrOverload
	Inflight int   // admitted ops not yet completed
}

// AdmissionStats snapshots the MDS admission counters. Every rejected op
// surfaces to its submitter as ErrOverload — the harness asserts rejected
// equals the retries-plus-reported count, so no op is silently lost.
func (c *Cluster) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted: c.admitted,
		Rejected: c.rejected,
		Inflight: c.admittedInFlight,
	}
}

// admissionDone marks one admitted op completed. The completion is
// client-side knowledge; the MDS and clients share a process, so the
// decrement is in-process bookkeeping rather than a wire message (a real
// deployment would piggyback completions on the next AdmitOp batch).
func (c *Cluster) admissionDone() {
	c.admittedInFlight--
	if c.admittedInFlight < 0 {
		panic("cluster: admission in-flight count below zero")
	}
}
