// Package netsim models the cluster interconnect for the simulated ECFS:
// per-node full-duplex NICs with finite bandwidth, a per-hop base latency
// (propagation plus RPC software overhead), and complete traffic accounting.
// The paper's SSD testbed uses 25 Gb/s Ethernet and the HDD testbed 40 Gb/s
// InfiniBand (§5.1, §5.4); both are expressible as Params.
//
// Beyond the clean fabric, netsim is a fault-injection surface for the
// grey-failure space the SSD-array studies (Koh et al.) document: per-node
// latency overrides with pluggable distributions (straggler NICs),
// asymmetric one-way partitions, scripted down/up flapping on the sim
// clock, and payload-corruption hooks that flip bytes in flight so
// end-to-end checksums can be exercised.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tsue/internal/obs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Params describes the fabric.
type Params struct {
	Bandwidth float64       // bytes/sec per NIC direction
	BaseLat   time.Duration // per-hop latency incl. RPC software overhead
}

// Ethernet25G models the paper's SSD-cluster network.
func Ethernet25G() Params {
	return Params{Bandwidth: 25e9 / 8, BaseLat: 20 * time.Microsecond}
}

// Infiniband40G models the paper's HDD-cluster network.
func Infiniband40G() Params {
	return Params{Bandwidth: 40e9 / 8, BaseLat: 8 * time.Microsecond}
}

// ErrNodeDown is returned for calls to a failed node.
var ErrNodeDown = errors.New("netsim: node down")

// ErrPartitioned is returned when a call crosses a partitioned link
// direction. A request-direction cut fails before the handler runs (no side
// effects); a response-direction cut fails after the handler completed — the
// caller cannot tell whether its operation was applied.
var ErrPartitioned = errors.New("netsim: link partitioned")

// ErrUnknownNode is wrapped by accessors handed a NodeID that was never
// registered with AddNode.
var ErrUnknownNode = errors.New("netsim: unknown node")

// Handler processes one inbound message on a node and returns the response.
type Handler func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg

// Corruptor inspects a message in flight on the from->to direction and may
// replace it with a corrupted copy (return the mutated message and true).
// Implementations must clone what they flip and leave the original message
// and its payload slices alone: messages pass by reference through the
// simulated transport, and the original's payload is either still its
// sender's — it may alias a journal item, a replica-store record, the
// client's own bytes — or, for a moved kind (parity deltas, read responses;
// ARCHITECTURE, "Payload ownership"), about to become its receiver's. The
// clone is what gets delivered; every receiver verifies the payload's sum
// before it keeps or adopts anything, so a corrupted clone is rejected and
// never retained. Loopback traffic is exempt (it never crosses a wire).
type Corruptor func(from, to wire.NodeID, m wire.Msg) (wire.Msg, bool)

// Dist is a latency distribution sampled once per one-way hop.
type Dist interface {
	Sample(r *rand.Rand) time.Duration
}

// Fixed is a degenerate distribution: every sample is the same duration.
// It never consumes randomness, so fabrics using only Fixed latencies stay
// bit-deterministic regardless of call interleaving. Fixed(0) is a valid
// explicit zero-latency node (only a nil Dist means "inherit").
type Fixed time.Duration

// Sample returns the fixed duration; r is unused.
func (f Fixed) Sample(_ *rand.Rand) time.Duration { return time.Duration(f) }

// Lognormal is a heavy-tailed latency distribution — the straggler shape
// observed for limping NICs/SSDs: exp(N(ln median, sigma^2)), i.e. median
// multiplied by a lognormal factor. Sigma around 1.5-2 produces the
// occasional 10-100x outlier that hedged reads exist to cut.
type Lognormal struct {
	Median time.Duration
	Sigma  float64
}

// Sample draws one latency from the distribution.
func (l Lognormal) Sample(r *rand.Rand) time.Duration {
	d := time.Duration(float64(l.Median) * math.Exp(l.Sigma*r.NormFloat64()))
	if d < 0 {
		d = 0
	}
	return d
}

// Stats holds traffic counters.
//
//lint:allow obsregistry(pre-registry snapshot struct of the fabric traffic API; per-node and total counters feed the harness volume columns)
type Stats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

type node struct {
	id      wire.NodeID
	tx, rx  *sim.Resource
	handler Handler
	down    bool
	lat     Dist // nil = inherit
	stats   Stats
}

type linkKey struct{ from, to wire.NodeID }

// Fabric connects nodes.
type Fabric struct {
	env       *sim.Env
	params    Params
	nodes     map[wire.NodeID]*node
	parts     map[linkKey]bool
	corrupt   Corruptor
	corrupted int64
	rng       *rand.Rand
	total     Stats
	tracer    *obs.Tracer
}

// New creates an empty fabric. Latency distributions share a fabric-local
// deterministic RNG; the default Fixed latency path never touches it.
func New(e *sim.Env, p Params) *Fabric {
	return &Fabric{
		env:    e,
		params: p,
		nodes:  make(map[wire.NodeID]*node),
		parts:  make(map[linkKey]bool),
		rng:    rand.New(rand.NewSource(1)),
	}
}

// AddNode registers a node; handler may be nil for pure clients.
func (f *Fabric) AddNode(id wire.NodeID, h Handler) {
	if _, dup := f.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %d", id))
	}
	f.nodes[id] = &node{
		id:      id,
		tx:      f.env.NewResource(fmt.Sprintf("nic-tx-%d", id), 1),
		rx:      f.env.NewResource(fmt.Sprintf("nic-rx-%d", id), 1),
		handler: h,
	}
}

// SetHandler replaces a node's handler. Unknown nodes are an error, not a
// panic.
func (f *Fabric) SetHandler(id wire.NodeID, h Handler) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.handler = h
	return nil
}

// SetDown marks a node failed (true) or restored (false). Unknown nodes are
// an error, not a panic.
func (f *Fabric) SetDown(id wire.NodeID, down bool) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.down = down
	return nil
}

// Down reports whether the node is failed; unknown nodes report false.
func (f *Fabric) Down(id wire.NodeID) bool {
	n, ok := f.nodes[id]
	return ok && n.down
}

// SetNodeLatency overrides the one-way latency of every hop touching a node
// (a limping NIC): it applies to hops the node sends and, when the sender
// has no override, to hops it receives. A nil d restores the fabric
// default.
func (f *Fabric) SetNodeLatency(id wire.NodeID, d Dist) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.lat = d
	return nil
}

// Partition cuts (on=true) or heals (on=false) the directed link
// from -> to. Cutting only one direction yields the asymmetric grey
// failure: A's calls to B die while B's calls to A — including responses to
// requests that arrived before the cut — still flow.
func (f *Fabric) Partition(from, to wire.NodeID, on bool) error {
	if _, ok := f.nodes[from]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	if _, ok := f.nodes[to]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if on {
		f.parts[linkKey{from, to}] = true
	} else {
		delete(f.parts, linkKey{from, to})
	}
	return nil
}

// Partitioned reports whether the directed link from -> to is cut.
func (f *Fabric) Partitioned(from, to wire.NodeID) bool { return f.parts[linkKey{from, to}] }

// ScheduleFlap scripts a membership flap on the sim clock: starting at
// start, the node goes down for downFor, comes back, and repeats every
// period for cycles iterations. The toggles run in scheduler context, so
// they land at exact virtual times regardless of traffic.
func (f *Fabric) ScheduleFlap(id wire.NodeID, start, downFor, period time.Duration, cycles int) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if downFor <= 0 || cycles < 1 {
		return fmt.Errorf("netsim: flap needs downFor > 0 and cycles >= 1")
	}
	if cycles > 1 && period <= downFor {
		return fmt.Errorf("netsim: flap period %v must exceed downFor %v", period, downFor)
	}
	for i := 0; i < cycles; i++ {
		at := start + time.Duration(i)*period
		f.env.At(at, func() { n.down = true })
		f.env.At(at+downFor, func() { n.down = false })
	}
	return nil
}

// SetTracer attaches the observability plane's tracer: every Call whose
// request is wire.Spanned and whose calling proc runs under a live trace
// gets a wire-stage span covering the full round trip, the message is
// stamped with the child context, and the receiving handler runs under a
// resumed handler span — cross-node tracing with no per-call-site plumbing.
// Tracing records spans only; it never schedules events, consumes
// randomness, or changes message sizes, so fabric timing is identical with
// it on or off.
func (f *Fabric) SetTracer(t *obs.Tracer) { f.tracer = t }

// SetCorruptor installs (or, with nil, removes) the in-flight corruption
// hook. It sees every non-loopback request and response.
func (f *Fabric) SetCorruptor(c Corruptor) { f.corrupt = c }

// CorruptionsInjected counts messages the corruptor chose to mutate.
func (f *Fabric) CorruptionsInjected() int64 { return f.corrupted }

// latency resolves the one-way latency of a from -> to hop and samples it:
// the sender's override first, then the receiver's, then the fabric
// default.
func (f *Fabric) latency(from, to *node) time.Duration {
	if from.lat != nil {
		return from.lat.Sample(f.rng)
	}
	if to.lat != nil {
		return to.lat.Sample(f.rng)
	}
	return f.params.BaseLat
}

// xfer holds NIC leg r for size bytes at the fabric bandwidth.
func (f *Fabric) xfer(p *sim.Proc, r *sim.Resource, size int64) {
	r.Use(p, time.Duration(float64(size)/f.params.Bandwidth*float64(time.Second)))
}

type callResult struct {
	resp wire.Msg
	err  error
}

// Call performs a synchronous RPC from -> to. It charges the sender's TX and
// the receiver's RX for the request, runs the handler in a fresh process on
// the receiver, then charges the reverse path for the response. Loopback
// calls skip the NIC (and all fault injection) but still run the handler.
func (f *Fabric) Call(p *sim.Proc, from, to wire.NodeID, req wire.Msg) (wire.Msg, error) {
	src, ok := f.nodes[from]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown source node %d", from)
	}
	dst, ok := f.nodes[to]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown target node %d", to)
	}
	if fin := f.rpcSpan(p, req, to); fin != nil {
		defer fin()
	}
	if src.down {
		return nil, ErrNodeDown
	}
	if dst.down {
		// The connection attempt still costs a round trip.
		p.Sleep(2 * f.params.BaseLat)
		return nil, ErrNodeDown
	}
	if dst.handler == nil {
		return nil, fmt.Errorf("netsim: node %d has no handler", to)
	}
	if from == to {
		// Local dispatch: no NIC, no propagation; handler still runs in its
		// own process for scheduling parity with remote calls.
		return f.dispatch(p, src, dst, req, true)
	}
	reqSize := wire.SizeOf(req)
	f.xfer(p, src.tx, reqSize)
	src.stats.BytesSent += reqSize
	src.stats.MsgsSent++
	f.total.BytesSent += reqSize
	f.total.MsgsSent++
	if f.parts[linkKey{from, to}] {
		// Request-direction cut: the bytes left the sender and died on the
		// wire. The receiver never sees the call — no handler side effects —
		// and the caller burns a timeout-ish round trip discovering it.
		p.Sleep(2 * f.latency(src, dst))
		return nil, ErrPartitioned
	}
	if f.corrupt != nil {
		if m, hit := f.corrupt(from, to, req); hit {
			req = m
			f.corrupted++
		}
	}
	p.Sleep(f.latency(src, dst))
	dst.stats.BytesRecv += reqSize
	dst.stats.MsgsRecv++
	return f.dispatch(p, src, dst, req, false)
}

// rpcSpan opens the wire-stage span for a traced outgoing request and
// stamps the message with the child context; returns nil when untraced.
func (f *Fabric) rpcSpan(p *sim.Proc, req wire.Msg, to wire.NodeID) func() {
	if !f.tracer.Enabled() {
		return nil
	}
	sp, ok := req.(wire.Spanned)
	if !ok {
		return nil
	}
	a, on := obs.FromProc(p)
	if !on {
		return nil
	}
	child, fin := a.Child(obs.RPCStage(req), "rpc:"+wire.Name(req), to)
	*sp.SpanRef() = child.Ctx()
	return fin
}

// handlerSpan resumes a traced request's wire context on the handler proc
// and opens the receiver-side span; no-op when untraced.
func (f *Fabric) handlerSpan(hp *sim.Proc, req wire.Msg, at wire.NodeID) func() {
	if !f.tracer.Enabled() {
		return nil
	}
	sp, ok := req.(wire.Spanned)
	if !ok || sp.SpanRef().Trace == 0 {
		return nil
	}
	stage := obs.HandlerStage(req)
	h := obs.Resume(f.tracer, *sp.SpanRef(), stage)
	hc, fin := h.Child(stage, "handle:"+wire.Name(req), at)
	hp.SetSpan(hc)
	return fin
}

func (f *Fabric) dispatch(p *sim.Proc, src, dst *node, req wire.Msg, local bool) (wire.Msg, error) {
	respQ := sim.NewQueue[callResult](f.env)
	f.env.Go("rpc", func(hp *sim.Proc) {
		if !local {
			f.xfer(hp, dst.rx, wire.SizeOf(req))
		}
		if dst.down {
			respQ.Put(callResult{err: ErrNodeDown})
			return
		}
		hFin := f.handlerSpan(hp, req, dst.id)
		resp := dst.handler(hp, src.id, req)
		if hFin != nil {
			hFin()
		}
		if resp == nil {
			resp = wire.OK
		}
		if !local {
			if f.parts[linkKey{dst.id, src.id}] {
				// Response-direction cut: the handler's side effects are
				// complete but the reply dies on the wire — the caller cannot
				// tell whether its operation was applied. This is the grey
				// half of an asymmetric partition.
				respQ.Put(callResult{err: ErrPartitioned})
				return
			}
			if f.corrupt != nil {
				if m, hit := f.corrupt(dst.id, src.id, resp); hit {
					resp = m
					f.corrupted++
				}
			}
			respSize := wire.SizeOf(resp)
			f.xfer(hp, dst.tx, respSize)
			dst.stats.BytesSent += respSize
			dst.stats.MsgsSent++
			src.stats.BytesRecv += respSize
			src.stats.MsgsRecv++
			f.total.BytesSent += respSize
			f.total.MsgsSent++
		}
		respQ.Put(callResult{resp: resp})
	})
	r, _ := respQ.Get(p)
	if r.err != nil {
		return nil, r.err
	}
	if !local {
		p.Sleep(f.latency(dst, src))
	}
	return r.resp, nil
}

// NICLoad reports one node's NIC state for utilization sampling: cumulative
// busy time and instantaneous waiter-queue depth, per direction. Unknown
// nodes report zeros.
func (f *Fabric) NICLoad(id wire.NodeID) (txBusy, rxBusy time.Duration, txQueue, rxQueue int) {
	n, ok := f.nodes[id]
	if !ok {
		return 0, 0, 0, 0
	}
	return n.tx.BusyTime, n.rx.BusyTime, n.tx.QueueLen(), n.rx.QueueLen()
}

// NodeIDs returns the registered node ids in ascending order.
func (f *Fabric) NodeIDs() []wire.NodeID {
	ids := make([]wire.NodeID, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NodeStats returns the traffic counters of one node; unknown nodes report
// zeros.
func (f *Fabric) NodeStats(id wire.NodeID) Stats {
	n, ok := f.nodes[id]
	if !ok {
		return Stats{}
	}
	return n.stats
}

// TotalStats returns fabric-wide traffic (each message counted once).
func (f *Fabric) TotalStats() Stats { return f.total }

// ResetStats zeroes all traffic counters (corruption injections included).
func (f *Fabric) ResetStats() {
	f.total = Stats{}
	f.corrupted = 0
	for _, n := range f.nodes {
		n.stats = Stats{}
	}
}
