package cluster

import (
	"errors"
	"time"
)

// ErrOverload is the retryable sentinel for an op the MDS admission policy
// bounced: the cluster is past its configured rate or queue-depth budget
// and the submitter should back off and retry (or count the rejection).
// Unlike the terminal sentinels (ErrClusterDegraded, ErrSurrogateLost) it
// promises nothing is wrong with the op itself — resubmitting later
// succeeds once load drains. The MDS sends it as the AdmitOp Ack's Err.
var ErrOverload = errors.New("cluster: admission rejected, overloaded")

// AdmissionPolicy decides, per foreground client op, whether the MDS admits
// it. now is the virtual time of the decision and inflight the number of
// admitted ops not yet completed (the MDS-side queue depth). Policies run
// in simulation context — single-threaded, no locking needed — and must be
// deterministic in (call order, now, inflight).
type AdmissionPolicy interface {
	Admit(now time.Duration, inflight int) bool
}

// TokenBucket is the standard AdmissionPolicy: ops are admitted at Rate
// tokens/second with bursts up to Burst, and — independently — bounced
// whenever more than MaxInflight admitted ops are still in flight
// (queue-depth backpressure, the signal that survives even when the rate
// estimate is wrong). The zero value of either knob disables that check.
type TokenBucket struct {
	Rate        float64 // sustained admissions per second (0 = unlimited)
	Burst       float64 // bucket capacity in tokens (0 = Rate for a 1s burst)
	MaxInflight int     // admitted-but-uncompleted cap (0 = unlimited)

	tokens float64
	last   time.Duration
	primed bool
}

// Admit refills the bucket for the elapsed virtual time and spends one
// token, rejecting when the bucket is dry or the in-flight cap is hit.
func (tb *TokenBucket) Admit(now time.Duration, inflight int) bool {
	if tb.MaxInflight > 0 && inflight >= tb.MaxInflight {
		return false
	}
	if tb.Rate <= 0 {
		return true
	}
	burst := tb.Burst
	if burst <= 0 {
		burst = tb.Rate
	}
	if !tb.primed {
		// A fresh bucket starts full so cold-start ops are not rejected
		// before any time has elapsed.
		tb.tokens = burst
		tb.last = now
		tb.primed = true
	}
	tb.tokens += tb.Rate * (now - tb.last).Seconds()
	tb.last = now
	if tb.tokens > burst {
		tb.tokens = burst
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// AdmissionStats is the cluster-wide admission counter snapshot.
//
//lint:allow obsregistry(pre-registry snapshot struct returned by the admission API; its counters are mirrored onto the registry)
type AdmissionStats struct {
	Admitted int64 // ops admitted by the policy
	Rejected int64 // ops bounced with ErrOverload
	Inflight int   // admitted ops not yet completed
}

// AdmissionStats snapshots the MDS admission counters (thin reads of the
// obs registry's admission_admitted/admission_rejected counters). Every
// rejected op surfaces to its submitter as ErrOverload — the harness asserts
// rejected equals the retries-plus-reported count, so no op is silently lost.
func (c *Cluster) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted: int64(c.admitted.Value()),
		Rejected: int64(c.rejected.Value()),
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
