package cluster

import (
	"errors"
	"fmt"
	"time"

	"tsue/internal/netsim"
	"tsue/internal/obs"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

// Client is the ECFS access layer: it encodes full stripes on the normal
// write path, routes small updates to the owning data OSD, and assembles
// reads (§4: the CLIENT handles the data encoding process).
type Client struct {
	c  *Cluster
	id wire.NodeID
	// view is the placement-map epoch this client has learned. Requests
	// carry the epoch the route was resolved under; when a PG has moved on
	// (online rebalance cutover), the OSD bounces the request with a
	// retryable stale-epoch error and the client refreshes the view from
	// the MDS — the same fetch-newer-map loop Ceph clients run.
	view uint64
}

// ID returns the client's node ID.
func (cl *Client) ID() wire.NodeID { return cl.id }

// Create registers a file of the given byte size with the MDS and returns
// its inode. Size is rounded up to whole stripes.
func (cl *Client) Create(p *sim.Proc, name string, size int64) (uint64, error) {
	sw := cl.c.StripeWidth()
	stripes := uint32((size + sw - 1) / sw)
	if stripes == 0 {
		stripes = 1
	}
	cr, err := askMDS[*wire.CreateResp](p, cl, &wire.CreateFile{Name: name, Stripes: stripes}, "client: create")
	if err != nil {
		return 0, err
	}
	return cr.Ino, nil
}

// WriteFile writes the whole file content via the normal (encoding) write
// path: per stripe, K data blocks are encoded into M parity blocks and all
// K+M are stored in parallel. data is zero-padded to a stripe boundary.
func (cl *Client) WriteFile(p *sim.Proc, ino uint64, data []byte) error {
	cfg := cl.c.Cfg
	sw := cl.c.StripeWidth()
	nstripes := (int64(len(data)) + sw - 1) / sw
	for s := int64(0); s < nstripes; s++ {
		shards := make([][]byte, cfg.K+cfg.M)
		for i := 0; i < cfg.K; i++ {
			shards[i] = make([]byte, cfg.BlockSize)
			off := s*sw + int64(i)*cfg.BlockSize
			if off < int64(len(data)) {
				copy(shards[i], data[off:min(int64(len(data)), off+cfg.BlockSize)])
			}
		}
		for i := 0; i < cfg.M; i++ {
			shards[cfg.K+i] = make([]byte, cfg.BlockSize)
		}
		if err := cl.c.Code.Encode(shards[:cfg.K], shards[cfg.K:]); err != nil {
			return err
		}
		sid := wire.StripeID{Ino: ino, Stripe: uint32(s)}
		osds := cl.c.Placement(sid)
		if err := sim.Parallel(p, "put", len(shards), func(hp *sim.Proc, i int) error {
			blk := wire.BlockID{Ino: ino, Stripe: uint32(s), Index: uint16(i)}
			req := &wire.PutBlock{Blk: blk, Data: shards[i], Sum: wire.Checksum(shards[i])}
			if err := wire.AckErr(cl.c.Fabric.Call(hp, cl.id, osds[i], req)); err != nil {
				return fmt.Errorf("put %v: %w", blk, err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// routeRetries bounds how long a client op waits for a mid-transition route
// (node just failed, degraded registration in flight, cutover just
// finished) before surfacing the error; combined with routeRetryDelay it
// gives the control plane a few virtual seconds to publish routing. The
// budget must cover the widest legitimate no-route window: an OSD death
// during an online rebalance, where every in-flight PG first resolves
// (abort/finish — for lazy-log engines each fence drains their whole
// deferred merge debt) before recovery can register the degraded route.
// Time spent blocked at the update gate does not consume the budget.
const (
	routeRetries    = 4000
	routeRetryDelay = time.Millisecond
)

// Update applies a partial write at a file offset through the update path.
// It is one client op: one root span and one admission round trip, then the
// write is split on block boundaries and the block pieces are applied in
// order, one at a time (a parallel fan-out would only deepen the DeltaLog
// stalls of a closed loop). A rejected admission returns ErrOverload with
// no block touched. Updates wait out the recovery gate, and updates to a
// degraded stripe route to the surrogate's journal instead of the home OSD,
// so client writes keep completing while a node is down.
func (cl *Client) Update(p *sim.Proc, ino uint64, off int64, data []byte) error {
	ps := cl.split(ino, off, int64(len(data)))
	if len(ps) == 0 {
		return nil
	}
	finOp := cl.startOp(p, ps, obs.OpUpdate, obs.OpDegradedUpdate)
	defer finOp()
	release, err := cl.admit(p)
	if err != nil {
		return fmt.Errorf("update %v: %w", ps[0].blk, err)
	}
	defer release()
	for _, pc := range ps {
		if err := cl.updateBlock(p, pc.blk, pc.boff, data[pc.at:pc.at+pc.n]); err != nil {
			return err
		}
	}
	return nil
}

// piece is the block-local part of a client op: bytes [at, at+n) of the
// op's buffer are bytes [boff, boff+n) of blk.
type piece struct {
	blk   wire.BlockID
	boff  int64
	at, n int64
}

// split cuts the file range [off, off+size) of ino at block boundaries, in
// file order.
func (cl *Client) split(ino uint64, off, size int64) []piece {
	var ps []piece
	for at := int64(0); at < size; {
		blk, boff := cl.c.Locate(ino, off+at)
		n := min(cl.c.Cfg.BlockSize-boff, size-at)
		ps = append(ps, piece{blk: blk, boff: boff, at: at, n: n})
		at += n
	}
	return ps
}

// admit asks the MDS for admission of one foreground client op (a whole
// Read or Update, however many blocks it spans) when an admission policy is
// configured: one metadata round trip. On admission it returns a release
// closure the caller must invoke when the op completes, so the MDS's
// queue-depth view drains. On rejection it returns ErrOverload
// (wrapped, errors.Is-able) WITHOUT consuming the caller's route-retry
// budget: overload is the submitter's signal to back off, not a routing
// transient the client should spin on.
func (cl *Client) admit(p *sim.Proc) (release func(), err error) {
	if cl.c.Cfg.Admission == nil {
		return func() {}, nil
	}
	switch err = wire.AckErr(cl.c.Fabric.Call(p, cl.id, mdsID, &wire.AdmitOp{})); {
	case err == nil:
		return cl.c.admissionDone, nil
	case errors.Is(err, ErrOverload):
		return nil, err
	default:
		return nil, fmt.Errorf("admit: %w", err)
	}
}

// startOp opens the root span of one foreground client op (when sampled);
// the op is degraded when any of its pieces is on a degraded stripe. The
// root's client stage wins whatever no deeper span covers: retry pauses and
// overload backoff. A wait at a fence is a fence-stage span.
func (cl *Client) startOp(p *sim.Proc, ps []piece, normal, degraded obs.OpKind) func() {
	op := normal
	for _, pc := range ps {
		if _, _, dg := cl.c.degradedRoute(pc.blk.StripeID()); dg {
			op = degraded
			break
		}
	}
	return cl.c.Obs.Tracer.StartOp(p, op, cl.id, "op:"+op.String())
}

// updateBlock routes one piece of an admitted Update, retrying through
// route transitions (failure detection, degraded registration, recovery
// cutover, rebalance cutover). The op's root span and admission slot belong
// to Update.
func (cl *Client) updateBlock(p *sim.Proc, blk wire.BlockID, boff int64, data []byte) error {
	sum := wire.Checksum(data)
	for attempt := 0; ; attempt++ {
		cl.c.waitGate(p, cl.id, "fence:gate")
		var resp wire.Msg
		var err error
		if failed, surrogate, ok := cl.c.degradedRoute(blk.StripeID()); ok {
			resp, err = cl.c.Fabric.Call(p, cl.id, surrogate,
				&wire.DegradedUpdate{Failed: failed, Blk: blk, Off: boff, Data: data, Sum: sum})
		} else {
			// Counted so recovery's fenceUpdates can wait out in-flight
			// engine updates before a consistency barrier.
			cl.c.updatesInFlight++
			osds, epoch := cl.c.ResolveView(blk.StripeID(), cl.view)
			resp, err = cl.c.Fabric.Call(p, cl.id, osds[blk.Index],
				&wire.Update{Blk: blk, Off: boff, Data: data, Epoch: epoch, Sum: sum})
			cl.c.updatesInFlight--
			if cl.c.updatesInFlight == 0 {
				cl.c.gateCond.Broadcast()
			}
		}
		if err = wire.AckErr(resp, err); err == nil {
			return nil
		}
		if !cl.retry(p, blk, attempt, err) {
			return fmt.Errorf("update %v: %w", blk, err)
		}
	}
}

// retry reports whether a block op's failed attempt is retried, and if so
// prepares the next one. Route bounces and checksum rejections (the corrupt
// payload was discarded before any side effect) retry until the budget runs
// out. A stale-epoch bounce refreshes the map view and retries at once;
// other retries wait routeRetryDelay, and a dead node refreshes the view
// too: it cannot bounce a stale epoch, and placement may have moved the
// block off it in flight (the hole the kill-during-rebalance grid pinned).
func (cl *Client) retry(p *sim.Proc, blk wire.BlockID, attempt int, err error) bool {
	if attempt >= routeRetries || !(retryableRouteErr(err) || errors.Is(err, wire.ErrChecksum)) {
		return false
	}
	if errors.Is(err, errStaleEpoch) {
		cl.refreshView(p, blk)
		return true
	}
	if errors.Is(err, netsim.ErrNodeDown) {
		cl.refreshView(p, blk)
	}
	p.Sleep(routeRetryDelay)
	return true
}

// Read returns [off, off+size) of the file. It is one client op: one root
// span and one admission round trip, then the range is split on block
// boundaries and every block piece is read at once, each in its own proc,
// into one exact-size buffer at disjoint offsets. If a piece fails, Read
// returns nil and that piece's error (the first in completion order) once
// every piece has finished. Reads of degraded stripes route to the
// surrogate, which reconstructs lost ranges on the fly and overlays
// journaled updates (read-your-writes even while the home OSD is down). The
// result is the caller's: a read that stays inside one block returns the
// verified response payload itself — a ReadResp's buffer is built for that
// one message and moved to its receiver — and only a read that crosses
// blocks allocates.
func (cl *Client) Read(p *sim.Proc, ino uint64, off, size int64) ([]byte, error) {
	ps := cl.split(ino, off, size)
	if len(ps) == 0 {
		return []byte{}, nil
	}
	finOp := cl.startOp(p, ps, obs.OpRead, obs.OpDegradedRead)
	defer finOp()
	release, err := cl.admit(p)
	if err != nil {
		return nil, fmt.Errorf("read %v: %w", ps[0].blk, err)
	}
	defer release()
	if len(ps) == 1 {
		return cl.readBlock(p, ps[0].blk, ps[0].boff, ps[0].n)
	}
	out := make([]byte, size)
	if err := sim.Parallel(p, "read", len(ps), func(hp *sim.Proc, i int) error {
		pc := ps[i]
		buf, err := cl.readBlock(hp, pc.blk, pc.boff, pc.n)
		copy(out[pc.at:pc.at+pc.n], buf)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// readBlock reads one piece of an admitted Read, retrying through route
// transitions like updateBlock. The op's root span and admission slot
// belong to Read.
func (cl *Client) readBlock(p *sim.Proc, blk wire.BlockID, boff, n int64) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		var resp wire.Msg
		var err error
		if failed, surrogate, ok := cl.c.degradedRoute(blk.StripeID()); ok {
			// The surrogate fences a degraded read where it must; normal
			// reads are gated only by a rebalance cutover fence on their
			// own PG (below).
			resp, err = cl.c.Fabric.Call(p, cl.id, surrogate,
				&wire.DegradedRead{Failed: failed, Blk: blk, Off: boff, Size: int32(n)})
		} else {
			// A read of a PG mid-cutover must not observe the window where
			// overlay logs left the old home but have not landed at the
			// new one; the fence is short (settle + catch-up + replay).
			if cl.c.migrationFenced(blk) {
				cl.c.waitGate(p, cl.id, "fence:migration")
			}
			osds, epoch := cl.c.ResolveView(blk.StripeID(), cl.view)
			resp, err = cl.c.Fabric.Call(p, cl.id, osds[blk.Index],
				&wire.ReadBlock{Blk: blk, Off: boff, Size: int32(n), Epoch: epoch})
		}
		// End-to-end verification: the response payload survived the wire.
		// A mismatch is retryable like any transient fault.
		data, err := cl.c.readData(resp, err)
		if err == nil {
			return data, nil
		}
		if !cl.retry(p, blk, attempt, err) {
			return nil, fmt.Errorf("read %v: %w", blk, err)
		}
	}
}

// refreshView re-resolves the client's placement view from the MDS after a
// stale-epoch bounce — one metadata round trip, after which ResolveView
// routes through the newest map (and, mid-transition, the shipped per-PG
// cutover state). On failure the next attempt bounces again.
func (cl *Client) refreshView(p *sim.Proc, blk wire.BlockID) {
	lr, err := askMDS[*wire.LookupResp](p, cl, &wire.Lookup{Ino: blk.Ino, Stripe: blk.Stripe}, "lookup")
	if err == nil && lr.Epoch > cl.view {
		cl.view = lr.Epoch
	}
}

// askMDS sends req from cl to the MDS and returns the answer as a T. A
// transport error comes back as is; a response of another type, or one
// carrying an error, is prefixed with what.
func askMDS[T wire.Msg](p *sim.Proc, cl *Client, req wire.Msg, what string) (T, error) {
	var zero T
	resp, err := cl.c.Fabric.Call(p, cl.id, mdsID, req)
	if err != nil {
		return zero, err
	}
	t, ok := resp.(T)
	if !ok {
		return zero, fmt.Errorf("%s: unexpected response %T", what, resp)
	}
	if err := wire.AckErr(t, nil); err != nil {
		return zero, fmt.Errorf("%s: %w", what, err)
	}
	return t, nil
}

// Lookup queries the MDS for a stripe's placement and the PG it resolved
// through (the cached fast path computes placement locally from the shared
// map; this exercises the metadata protocol).
func (cl *Client) Lookup(p *sim.Proc, ino uint64, stripe uint32) ([]wire.NodeID, uint32, error) {
	lr, err := askMDS[*wire.LookupResp](p, cl, &wire.Lookup{Ino: ino, Stripe: stripe}, "lookup")
	if err != nil {
		return nil, 0, err
	}
	return lr.OSDs, lr.PG, nil
}
