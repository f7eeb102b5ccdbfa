// Package wire defines the ECFS RPC message set and its wire-size model.
//
// The simulated fabric (internal/netsim) passes message values directly and
// charges SizeOf(m) — headerSize + PayloadSize — to the network model; no
// message is ever encoded to bytes. A message's type is its Go type: there is
// no type tag, and Name(m) is the name spans and error texts use.
// PayloadSize is the modelled length of a compact layout (fixed-width
// integers and bools, length-prefixed slices, strings and error texts), and
// the size table in wire_test.go pins it per message type, since every size
// feeds simulated network time. A message is kept in step in two places: its
// struct with its PayloadSize method, and its size-table row.
package wire

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
)

// ErrChecksum is the sentinel for an end-to-end payload checksum mismatch:
// the bytes delivered are not the bytes summed at the source. Receivers
// surface it (directly, or wrapped in a response's Err) instead of ever
// acting on — or returning — corrupt data.
var ErrChecksum = errors.New("wire: checksum mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the end-to-end payload digest carried by the data-bearing
// messages (CRC-32C). Checksum(nil) == 0, so empty payloads verify against
// a zero Sum.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, crcTable) }

// VerifySum checks data against a carried Sum.
func VerifySum(data []byte, sum uint32) error {
	if Checksum(data) != sum {
		return ErrChecksum
	}
	return nil
}

// ChecksumPair digests two payload slices under one CRC (a then b), for
// messages that carry two byte fields (ParixAppend's New and Orig): one Sum
// covers both, and a flip in either fails verification.
func ChecksumPair(a, b []byte) uint32 {
	return crc32.Update(crc32.Checksum(a, crcTable), crcTable, b)
}

// VerifySumPair checks a two-slice payload against a carried Sum.
func VerifySumPair(a, b []byte, sum uint32) error {
	if ChecksumPair(a, b) != sum {
		return ErrChecksum
	}
	return nil
}

// SummedPayload is implemented by the engine-internal payload messages. The
// OSD dispatch verifies it once, centrally, before any engine side effect —
// the engines themselves never see unverified bytes.
type SummedPayload interface {
	Msg
	// VerifyPayload re-checksums the payload against the carried Sum.
	VerifyPayload() error
}

// NodeID identifies a cluster node (MDS or OSD or client).
type NodeID int32

// BlockID names one block of one stripe of one file. Index < K are data
// blocks; K <= Index < K+M are parity blocks.
type BlockID struct {
	Ino    uint64
	Stripe uint32
	Index  uint16
}

func (b BlockID) String() string {
	return fmt.Sprintf("blk(%d/%d/%d)", b.Ino, b.Stripe, b.Index)
}

// Compare orders block ids by (Ino, Stripe, Index) — the deterministic
// iteration order of every per-block map in the tree. Ids are unique keys
// wherever they are sorted, so a sort by Compare has no ties to break.
func (b BlockID) Compare(o BlockID) int {
	return cmp.Or(cmp.Compare(b.Ino, o.Ino), cmp.Compare(b.Stripe, o.Stripe), cmp.Compare(b.Index, o.Index))
}

// StripeID names a stripe.
type StripeID struct {
	Ino    uint64
	Stripe uint32
}

// Stripe returns the stripe this block belongs to.
func (b BlockID) StripeID() StripeID { return StripeID{Ino: b.Ino, Stripe: b.Stripe} }

// headerSize models the per-message framing overhead (type, ids, lengths)
// charged on the simulated wire on top of the payload.
const headerSize = 40

// Msg is implemented by every RPC message (always a pointer to its struct).
type Msg interface {
	// PayloadSize is the modelled payload length in bytes, charged to the
	// network model on top of the header.
	PayloadSize() int
}

// SizeOf returns the total on-wire size of a message.
func SizeOf(m Msg) int64 { return int64(headerSize + m.PayloadSize()) }

// Name returns a message's type name ("Update", "AdmitOp"): the name span
// names and error texts carry.
func Name(m Msg) string { return reflect.TypeOf(m).Elem().Name() }

// ---- tracing ----

// SpanCtx is the compact trace context piggybacked on payload-bearing
// messages by the observability plane (internal/obs): the trace id of the
// originating op, the id of the network span this message travels under,
// and the op kind. A zero Trace means "untraced": the tracer leaves the
// other fields zero and receivers ignore them. The context always counts
// spanSize bytes, so a message has the same size traced or not — and
// simulated network timing is identical whether tracing is on or off.
type SpanCtx struct {
	Trace uint64
	Span  uint64
	Op    uint8
}

// spanSize is the modelled size of a SpanCtx.
const spanSize = 8 + 8 + 1

// Spanned is implemented by the messages that carry a SpanCtx: the netsim
// fabric stamps the context on traced sends and the receiving handler
// resumes it, which is what links a trace across nodes.
type Spanned interface {
	Msg
	// SpanRef exposes the carried context for stamping and resumption.
	SpanRef() *SpanCtx
}

// ---- generic ----

// errLen is the modelled length of a response's Err: its text, sent as a
// length-prefixed string (0 bytes for nil).
func errLen(err error) int {
	if err == nil {
		return 0
	}
	return len(err.Error())
}

// erring is implemented by the responses that carry an Err.
type erring interface{ carried() error }

// Ack is the generic response; Err is nil on success.
type Ack struct {
	Err error
}

func (a *Ack) PayloadSize() int { return 2 + errLen(a.Err) }
func (a *Ack) carried() error   { return a.Err }

// OK is a shared success ack (never mutated).
var OK = &Ack{}

// AckErr is the error outcome of an RPC: the transport error if there is
// one, else the Err the response carries, else nil (a response type without
// an Err is a success). The fabric hands the handler's error value itself
// to the caller, so a sentinel wrapped with %w on one node still satisfies
// errors.Is on the other.
func AckErr(resp Msg, err error) error {
	if err != nil {
		return err
	}
	if r, ok := resp.(erring); ok {
		return r.carried()
	}
	return nil
}

// ---- metadata ----

// CreateFile asks the MDS to create a file covering the given stripe count.
type CreateFile struct {
	Name    string
	Stripes uint32
}

func (c *CreateFile) PayloadSize() int { return 2 + len(c.Name) + 4 }

// CreateResp returns the assigned inode.
type CreateResp struct {
	Ino uint64
	Err error
}

func (c *CreateResp) PayloadSize() int { return 8 + 2 + errLen(c.Err) }
func (c *CreateResp) carried() error   { return c.Err }

// Lookup asks the MDS for the OSDs of a stripe.
type Lookup struct {
	Ino    uint64
	Stripe uint32
}

func (*Lookup) PayloadSize() int { return 12 }

// LookupResp carries the K+M block locations of a stripe plus the PG the
// MDS resolved them through — the PG-aware address clients cache and cite in telemetry.
// Epoch is the newest placement epoch the MDS has staged: clients cache it
// as their map view and carry it on Update/ReadBlock so OSDs can reject
// stale routing (see EpochUpdate).
type LookupResp struct {
	OSDs  []NodeID
	PG    uint32
	Epoch uint64
	Err   error
}

func (l *LookupResp) PayloadSize() int { return 2 + 4*len(l.OSDs) + 4 + 8 + 2 + errLen(l.Err) }
func (l *LookupResp) carried() error   { return l.Err }

// AdmitOp asks the MDS for admission of one foreground client op before the
// client performs it — the backpressure half of the open-loop load plane.
// The MDS runs its configured admission policy (a queue-depth limit) and
// answers with an Ack: a nil Err admits the op, an
// overload Err bounces it back to the submitter as a retryable rejection.
type AdmitOp struct {
	Span SpanCtx
}

func (*AdmitOp) PayloadSize() int    { return spanSize }
func (a *AdmitOp) SpanRef() *SpanCtx { return &a.Span }

// ---- block I/O ----

// PutBlock stores a full block (normal write path and recovery store).
// Sum is the CRC-32C of Data; the receiver verifies before storing.
type PutBlock struct {
	Blk  BlockID
	Data []byte
	Sum  uint32
	Span SpanCtx
}

func (p *PutBlock) PayloadSize() int  { return 14 + 4 + len(p.Data) + 4 + spanSize }
func (p *PutBlock) SpanRef() *SpanCtx { return &p.Span }

// ReadBlock reads [Off, Off+Size) of a block. Raw bypasses the update
// engine's log overlays and returns the on-store bytes — used by recovery
// and block migration, which must see a version consistent with the
// (equally log-lagged) parity. Epoch is the placement epoch the client
// resolved the block's home under; a non-raw read whose epoch no longer
// matches the PG's authoritative epoch is rejected with a stale-epoch error
// so the client re-resolves (raw reads are server-internal and exempt).
type ReadBlock struct {
	Blk   BlockID
	Off   int64
	Size  int32
	Raw   bool
	Epoch uint64
	Span  SpanCtx
}

func (*ReadBlock) PayloadSize() int    { return 14 + 13 + 8 + spanSize }
func (b *ReadBlock) SpanRef() *SpanCtx { return &b.Span }

// ReadResp returns block data. Sum is the CRC-32C of Data, computed by the
// responder; consumers verify before trusting the bytes. It carries no
// SpanCtx: a response travels inside the requester's rpc span (netsim links
// the return hop to the call), so a second context would be redundant bytes
// on every read.
type ReadResp struct {
	Data []byte
	Err  error
	Sum  uint32
}

func (r *ReadResp) PayloadSize() int { return 4 + len(r.Data) + 2 + errLen(r.Err) + 4 }
func (r *ReadResp) carried() error   { return r.Err }

// Update is a client update to the OSD hosting a data block. Epoch is the
// placement epoch the client resolved the route under (see ReadBlock).
// Sum is the CRC-32C of Data; the OSD verifies before any engine side
// effect, so a corrupted update is rejected rather than encoded into parity.
type Update struct {
	Blk   BlockID
	Off   int64
	Data  []byte
	Epoch uint64
	Sum   uint32
	Span  SpanCtx
}

func (u *Update) PayloadSize() int  { return 14 + 8 + 4 + len(u.Data) + 8 + 4 + spanSize }
func (u *Update) SpanRef() *SpanCtx { return &u.Span }

// ---- engine-internal forwarding ----

// DeltaKind tags the content of a DeltaAppend.
type DeltaKind uint8

const (
	// KindParityDelta: Data already multiplied by the parity coefficient;
	// the receiver XORs it (FO applies in place, PL/PLR append to a log).
	KindParityDelta DeltaKind = iota + 1
	// KindDataDelta: raw data delta; the receiver multiplies per Eq. (2)/(5)
	// (TSUE DeltaLog, CoRD collector).
	KindDataDelta
)

// DeltaAppend forwards a delta for a data block's update toward a parity
// holder. Blk is the *data* block; ParityIdx selects which parity block of
// the stripe this is destined for (0..M-1). Replica marks the reliability
// copy (stored, not recycled).
type DeltaAppend struct {
	Blk       BlockID
	ParityIdx uint16
	Off       int64
	Data      []byte
	Kind      DeltaKind
	Replica   bool
	Sum       uint32 // CRC-32C of Data, verified before any engine side effect
	Span      SpanCtx
}

func (d *DeltaAppend) PayloadSize() int     { return 14 + 2 + 8 + 4 + len(d.Data) + 2 + 4 + spanSize }
func (d *DeltaAppend) SpanRef() *SpanCtx    { return &d.Span }
func (d *DeltaAppend) VerifyPayload() error { return VerifySum(d.Data, d.Sum) }

// ParixAppend carries a PARIX speculative record: the new data and, on the
// first overwrite of a location, the original data.
type ParixAppend struct {
	Blk       BlockID
	ParityIdx uint16
	Off       int64
	New       []byte
	Orig      []byte // nil except on first overwrite
	Sum       uint32 // ChecksumPair(New, Orig), verified before any engine side effect
	Span      SpanCtx
}

func (p *ParixAppend) PayloadSize() int {
	return 14 + 2 + 8 + 4 + len(p.New) + 4 + len(p.Orig) + 4 + spanSize
}
func (p *ParixAppend) SpanRef() *SpanCtx    { return &p.Span }
func (p *ParixAppend) VerifyPayload() error { return VerifySumPair(p.New, p.Orig, p.Sum) }

// ParityDelta carries a ready-to-XOR parity delta for the given parity
// block (TSUE DeltaLog recycle output, CoRD collector output).
type ParityDelta struct {
	Blk  BlockID // the parity block
	Off  int64
	Data []byte
	Sum  uint32 // CRC-32C of Data, verified before any engine side effect
	Span SpanCtx
}

func (p *ParityDelta) PayloadSize() int     { return 14 + 8 + 4 + len(p.Data) + 4 + spanSize }
func (p *ParityDelta) SpanRef() *SpanCtx    { return &p.Span }
func (p *ParityDelta) VerifyPayload() error { return VerifySum(p.Data, p.Sum) }

// LogReplica replicates one DataLog append to the replica holder.
type LogReplica struct {
	SrcNode NodeID
	Pool    uint16
	UnitSeq uint64
	Blk     BlockID
	Off     int64
	Data    []byte
	Sum     uint32 // CRC-32C of Data, verified before any engine side effect
	Span    SpanCtx
}

func (l *LogReplica) PayloadSize() int     { return 4 + 2 + 8 + 14 + 8 + 4 + len(l.Data) + 4 + spanSize }
func (l *LogReplica) SpanRef() *SpanCtx    { return &l.Span }
func (l *LogReplica) VerifyPayload() error { return VerifySum(l.Data, l.Sum) }

// UnitDone tells the replica holder that a replicated unit was recycled and
// its copy can be dropped.
type UnitDone struct {
	SrcNode NodeID
	Pool    uint16
	UnitSeq uint64
}

func (*UnitDone) PayloadSize() int { return 14 }

// Drain asks an OSD to flush all update-engine logs to quiescence (its
// engine merges scope update.All).
type Drain struct{}

func (*Drain) PayloadSize() int { return 0 }

// RecoverBlock asks an OSD to reconstruct and store one lost block, reading
// the surviving blocks of the stripe from its peers. Reencode marks a lost
// first-parity block whose engine buffered cross-parity deltas (TSUE's
// DeltaLog, CoRD's collector) that died with the node: the target then
// re-encodes ALL parity blocks of the stripe from the K data blocks and
// repairs the stale live ones in place.
type RecoverBlock struct {
	Blk      BlockID
	Reencode bool
	Span     SpanCtx
}

func (*RecoverBlock) PayloadSize() int     { return 14 + 1 + spanSize }
func (rb *RecoverBlock) SpanRef() *SpanCtx { return &rb.Span }

// ReplicaItem is one unrecycled DataLog record replicated for reliability.
type ReplicaItem struct {
	Blk  BlockID
	Off  int64
	Data []byte
}

// ReplicaFetch asks an OSD for the replicated, unrecycled DataLog items it
// holds on behalf of the (failed) node.
type ReplicaFetch struct {
	Node NodeID
}

func (*ReplicaFetch) PayloadSize() int { return 4 }

// ReplicaResp returns the surviving log items, in original append order.
type ReplicaResp struct {
	Items []ReplicaItem
}

func (r *ReplicaResp) PayloadSize() int {
	n := 4
	for _, it := range r.Items {
		n += 14 + 8 + 4 + len(it.Data)
	}
	return n
}

// ---- degraded mode ----

// DegradedUpdate routes a client update for a degraded stripe (one whose
// placement includes the failed node Failed) to the surrogate OSD, which
// journals it until the stripe is rebuilt and the journal is replayed.
// Sum is the CRC-32C of Data, verified by the surrogate before journaling.
type DegradedUpdate struct {
	Failed NodeID
	Blk    BlockID
	Off    int64
	Data   []byte
	Sum    uint32
	Span   SpanCtx
}

func (d *DegradedUpdate) PayloadSize() int  { return 4 + 14 + 8 + 4 + len(d.Data) + 4 + spanSize }
func (d *DegradedUpdate) SpanRef() *SpanCtx { return &d.Span }

// DegradedRead asks the surrogate OSD for [Off, Off+Size) of a block in a
// degraded stripe. Lost blocks are reconstructed on the fly from surviving
// shards; live blocks are read from their home OSD; either way the
// surrogate's journal overlays newest-wins. Answered with a ReadResp.
type DegradedRead struct {
	Failed NodeID
	Blk    BlockID
	Off    int64
	Size   int32
	Span   SpanCtx
}

func (*DegradedRead) PayloadSize() int    { return 4 + 14 + 8 + 4 + spanSize }
func (d *DegradedRead) SpanRef() *SpanCtx { return &d.Span }

// JournalReplica copies one surrogate-journal record to a member of the
// surrogate's fixed quorum holder set (durability of the degraded-update
// journal). Surrogate names the appending surrogate and Seq is its
// per-surrogate monotone append sequence (1, 2, ...), so a promotion can
// union holder copies by (Blk, Off, Seq) newest-wins. Answered with a
// JournalAck. Sum is the CRC-32C of Data, verified by the holder before it
// acknowledges durability — a corrupted replica must not count toward the
// quorum.
type JournalReplica struct {
	Failed    NodeID
	Surrogate NodeID
	Seq       uint64
	Blk       BlockID
	Off       int64
	Data      []byte
	Sum       uint32
	Span      SpanCtx
}

func (j *JournalReplica) PayloadSize() int {
	return 4 + 4 + 8 + 14 + 8 + 4 + len(j.Data) + 4 + spanSize
}
func (j *JournalReplica) SpanRef() *SpanCtx { return &j.Span }

// JournalAck acknowledges a JournalReplica append: the holder has the
// record durably (persisted to its journal zone). Seq echoes the append
// sequence so the surrogate can match acks to appends.
type JournalAck struct {
	Seq uint64
	Err error
}

func (j *JournalAck) PayloadSize() int { return 8 + 2 + errLen(j.Err) }
func (j *JournalAck) carried() error   { return j.Err }

// JournalFetch retrieves surrogate-journal state for the given failed node.
// Two modes share the message:
//
//   - Surrogate == 0: steal the receiver's own (primary) journal — it
//     returns all journaled items as a ReplicaResp in append order and
//     forgets them. Recovery's cutover loop calls this until empty.
//   - Surrogate != 0: non-destructive read-repair fetch — the receiver
//     returns the quorum-replicated records it holds on behalf of that
//     surrogate with Seq > FromSeq, as a JournalFetchResp. Promotion after
//     a surrogate death unions these ranges across all reachable holders.
type JournalFetch struct {
	Failed    NodeID
	Surrogate NodeID
	FromSeq   uint64
}

func (*JournalFetch) PayloadSize() int { return 4 + 4 + 8 }

// JournalItem is one sequenced surrogate-journal record held by a quorum
// holder (the replicated counterpart of a journal append).
type JournalItem struct {
	Seq  uint64
	Blk  BlockID
	Off  int64
	Data []byte
}

// JournalFetchResp returns a holder's retained journal range for one
// (failed, surrogate) pair, in ascending Seq order.
type JournalFetchResp struct {
	Items []JournalItem
	Err   error
}

func (j *JournalFetchResp) PayloadSize() int {
	n := 4
	for _, it := range j.Items {
		n += 8 + 14 + 8 + 4 + len(it.Data)
	}
	return n + 2 + errLen(j.Err)
}
func (j *JournalFetchResp) carried() error { return j.Err }

// ReplayUpdate carries one recovered log/journal record to the (possibly
// remapped) home OSD, which merges it through the engine's replay hook
// (update.Replay) rather than the foreground update path.
type ReplayUpdate struct {
	Blk  BlockID
	Off  int64
	Data []byte
	Sum  uint32 // CRC-32C of Data, verified before the replay hook runs
	Span SpanCtx
}

func (r *ReplayUpdate) PayloadSize() int     { return 14 + 8 + 4 + len(r.Data) + 4 + spanSize }
func (r *ReplayUpdate) SpanRef() *SpanCtx    { return &r.Span }
func (r *ReplayUpdate) VerifyPayload() error { return VerifySum(r.Data, r.Sum) }

// ---- placement epochs / rebalance ----

// EpochKind enumerates EpochUpdate operations.
type EpochKind uint8

const (
	// EpochStageAddOSD stages a new epoch with OSD joined. Staging begins a
	// transition: the MDS resolves per PG — PGs already cut over use the new
	// map, the rest the old — and OSDs start rejecting requests whose Epoch
	// does not match their PG's authoritative epoch.
	EpochStageAddOSD EpochKind = iota + 1
	// EpochCommit ends the transition: every PG has cut over and the staged
	// epoch becomes the committed one.
	EpochCommit
)

// EpochUpdate is the rebalance engine's control message to the MDS: stage a
// new placement epoch or commit the in-flight one. Answered with EpochResp.
type EpochUpdate struct {
	Kind EpochKind
	OSD  NodeID
}

func (*EpochUpdate) PayloadSize() int { return 1 + 4 }

// EpochResp returns the (staged or committed) epoch number.
type EpochResp struct {
	Epoch uint64
	Err   error
}

func (e *EpochResp) PayloadSize() int { return 8 + 2 + errLen(e.Err) }
func (e *EpochResp) carried() error   { return e.Err }

// MigrateBlock asks a block's NEW home to pull the raw block from its old
// home From and store it locally — the bulk-copy step of a PG migration.
// Reconstruct marks the failure-resolution variant: the old home is dead,
// so the new home rebuilds the block's content from K surviving stripe
// peers instead of pulling it (Reencode additionally repairs the stripe's
// whole parity set, exactly as RecoverBlock would, when the dead source
// may have torn it).
type MigrateBlock struct {
	Blk         BlockID
	From        NodeID
	Reconstruct bool
	Reencode    bool
}

func (*MigrateBlock) PayloadSize() int { return 14 + 4 + 2 }

// PGCutover tells the MDS that one placement group's blocks (and logs) are
// in place at their new-epoch homes: the MDS atomically flips the PG's
// authoritative epoch, after which stale-epoch clients are bounced to
// re-resolve. It must be sent under the migration fence.
type PGCutover struct {
	PG    uint32
	Epoch uint64
}

func (*PGCutover) PayloadSize() int { return 4 + 8 }

// MigrateLog asks a migrating block's OLD home to extract the replayable
// pure-overlay log records it still holds for the block (TSUE's active
// DataLog items; empty for in-place schemes, which drain instead). The
// records are returned as a ReplicaResp in append order, removed from the
// local log, and their reliability replicas are retired cluster-wide; the
// migration engine replays them at the new home via ReplayUpdate — the
// log-follows-block half of the cutover.
type MigrateLog struct {
	Blk BlockID
}

func (*MigrateLog) PayloadSize() int { return 14 }

// ReplicaRetire tells a replica holder to drop every replicated, unrecycled
// DataLog item it keeps on behalf of Node for block Blk — sent after
// MigrateLog extracted those records, so a later failure of Node cannot
// replay stale pre-migration items over the block's new home.
type ReplicaRetire struct {
	Node NodeID
	Blk  BlockID
}

func (*ReplicaRetire) PayloadSize() int { return 4 + 14 }

// PGAbort tells the MDS that one placement group's migration was rolled
// back to the prior epoch: partially copied blocks at the staged-epoch
// destinations were retired and any extracted overlay was restored to the
// old homes, so the PG must keep resolving under the committed map. At
// commit time the abort becomes a physical remap (block stays at its old
// home) rather than a map change, mirroring how recovery overrides
// placement. It must name the in-flight staged epoch.
type PGAbort struct {
	PG    uint32
	Epoch uint64
}

func (*PGAbort) PayloadSize() int { return 4 + 8 }

// Settle asks an OSD to bring its raw block stores to stripe consistency
// with minimal merging: its engine merges scope update.Failed(Failed). With
// Failed 0 that is every stripe's state whose effects are already partially
// applied (delta/parity pipelines, lazy parity logs), while replayable
// pure-overlay state — TSUE's active DataLog units, which are replicated
// and replayed at recovery — is kept (§4.2). Otherwise it is all state,
// overlay included, of the stripes with a block on the Failed node: those
// raw shards feed reconstruction and must stay frozen through the degraded
// window.
type Settle struct {
	Failed NodeID
}

func (*Settle) PayloadSize() int { return 4 }
