// Package wire defines the ECFS RPC message set and its wire-size model.
//
// The simulated fabric (internal/netsim) passes message values directly and
// charges SizeOf(m) — a 40-byte header plus the modelled payload — to the
// network model; no message is ever encoded to bytes. A message's type is
// its Go type: there is no type tag, and Name(m) is the name spans and error
// texts use. A message is a struct and nothing else: its layout (layout.go)
// is derived from its fields in declaration order, by one rule —
// fixed-width integers and bools at their width (so a BlockID is 14 bytes,
// a SpanCtx 17); []byte and record slices behind a 4-byte length; strings,
// error texts and []NodeID behind a 2-byte length. Size, trace context
// (Span), carried error (AckErr) and checksum (Verify) all come from that
// layout, and the size table in wire_test.go pins it per message type,
// since every size feeds simulated network time.
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

// Msg is an RPC message: always a pointer to one of this package's message
// structs.
type Msg any

// Name returns a message's type name ("Update", "AdmitOp"): the name span
// names and error texts carry.
func Name(m Msg) string { return reflect.TypeOf(m).Elem().Name() }

// ---- tracing ----

// SpanCtx is the compact trace context piggybacked on payload-bearing
// messages by the observability plane (internal/obs): the trace id of the
// originating op, the id of the network span this message travels under,
// and the op kind. A zero Trace means "untraced": the tracer leaves the
// other fields zero and receivers ignore them. The context always counts
// its 17 bytes, so a message has the same size traced or not — and
// simulated network timing is identical whether tracing is on or off. The
// fabric stamps it on traced sends and the receiving handler resumes it
// (see Span), which is what links a trace across nodes.
type SpanCtx struct {
	Trace uint64
	Span  uint64
	Op    uint8
}

// ---- generic ----

// Ack is the generic response; Err is nil on success.
type Ack struct {
	Err error
}

// OK is a shared success ack (never mutated).
var OK = &Ack{}

// ---- metadata ----

// CreateFile asks the MDS to create a file covering the given stripe count.
type CreateFile struct {
	Name    string
	Stripes uint32
}

// CreateResp returns the assigned inode.
type CreateResp struct {
	Ino uint64
	Err error
}

// Lookup asks the MDS for the OSDs of a stripe.
type Lookup struct {
	Ino    uint64
	Stripe uint32
}

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

// AdmitOp asks the MDS for admission of one foreground client op before the
// client performs it — the backpressure half of the open-loop load plane.
// The MDS runs its configured admission policy (a queue-depth limit) and
// answers with an Ack: a nil Err admits the op, an
// overload Err bounces it back to the submitter as a retryable rejection.
type AdmitOp struct {
	Span SpanCtx
}

// ---- block I/O ----

// PutBlock stores a full block (normal write path and recovery store).
// Sum is the CRC-32C of Data; the receiver verifies before storing.
type PutBlock struct {
	Blk  BlockID
	Data []byte
	Sum  uint32
	Span SpanCtx
}

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

// RebuildRead asks a rebuild source for the slice [Off, Off+Size) of its
// raw shard Blk, one request of a rebuild stream: Stream names the
// stream, unique per source, rebuilt block and attempt, so no stream is
// answered from another's buffer. The source reads and verifies the whole shard
// off its device on the stream's first request, answers every slice from
// that buffer and drops it once every byte has been sent; a Size of 0
// ends the stream early and drops the buffer. Like a raw ReadBlock it is
// server-internal and exempt from routing checks. Answered with a
// ReadResp.
type RebuildRead struct {
	Blk    BlockID
	Stream uint64
	Off    int64
	Size   int32
	Span   SpanCtx
}

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
// the stripe this is destined for (0..M-1). Replica marks TSUE's
// reliability copy, which its receiver charges to its replica log and
// does not keep.
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

// ParixAppend carries a PARIX speculative record: the new data and, on the
// first overwrite of a location, the original data.
type ParixAppend struct {
	Blk       BlockID
	ParityIdx uint16
	Off       int64
	New       []byte
	Orig      []byte // nil except on first overwrite
	Sum       uint32 // CRC-32C of New then Orig, verified before any engine side effect
	Span      SpanCtx
}

// ParityDelta carries a ready-to-XOR parity delta for the given parity
// block (TSUE DeltaLog recycle output, CoRD collector output).
type ParityDelta struct {
	Blk  BlockID // the parity block
	Off  int64
	Data []byte
	Sum  uint32 // CRC-32C of Data, verified before any engine side effect
	Span SpanCtx
}

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

// UnitDone tells the replica holder that a replicated unit was recycled and
// its copy can be dropped.
type UnitDone struct {
	SrcNode NodeID
	Pool    uint16
	UnitSeq uint64
}

// Drain asks an OSD to flush all update-engine logs to quiescence (its
// engine merges scope update.All).
type Drain struct{}

// RecoverBlock asks an OSD to reconstruct and store one block, reading the
// surviving blocks of the stripe from its peers. Reencode marks a block
// whose plain reconstruction could bake a torn stripe in: the receiver
// then re-encodes ALL parity blocks of the stripe from the K data blocks
// and repairs the stale live ones in place. A window's settle sends one
// with Reencode to a live parity's own holder, naming that parity, to
// re-encode a stripe whose first parity's node died with the other
// parities' buffered deltas (TSUE's DeltaLog, CoRD's collector).
type RecoverBlock struct {
	Blk      BlockID
	Reencode bool
	Span     SpanCtx
}

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

// ReplicaResp returns the surviving log items, in original append order.
type ReplicaResp struct {
	Items []ReplicaItem
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

// JournalReplica copies one surrogate-journal record to a member of the
// surrogate's fixed quorum holder set (durability of the degraded-update
// journal). Surrogate names the appending surrogate and Seq is its
// per-surrogate monotone append sequence (1, 2, ...), so a promotion can
// union holder copies by (Blk, Off, Seq) newest-wins. Answered with OK
// once the holder has the record durably (persisted to its journal zone).
// Sum is the CRC-32C of Data, verified by the holder before it acknowledges
// durability — a corrupted replica must not count toward the quorum.
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

// JournalFetch is the read-repair fetch of a dead surrogate's journal: the
// receiver, a member of Surrogate's quorum holder set, returns the
// replicated records it holds on behalf of that surrogate for the failed
// node with Seq > FromSeq, as a JournalFetchResp, and keeps them. Promotion
// after a surrogate death fetches every reachable holder's whole set
// (FromSeq 0) and unions the sets by Seq.
type JournalFetch struct {
	Failed    NodeID
	Surrogate NodeID
	FromSeq   uint64
}

// JournalReplay asks a surrogate to replay its own journal for the failed
// node: every block's merged extents, taken from the journal's memory index,
// go to the block's current home as ReplayUpdates, blocks in parallel and
// each block's extents one at a time in offset order. The index keeps them,
// so degraded reads overlay them until the route retires. A journal with no
// record since its last replay replays nothing. Answered with a
// JournalReplayResp once every extent is acked.
type JournalReplay struct {
	Failed NodeID
}

// JournalReplayResp counts the extents a JournalReplay replayed and their
// bytes; Err is the first replay that failed.
type JournalReplayResp struct {
	Extents uint32
	Bytes   int64
	Err     error
}

// JournalItem is one sequenced surrogate-journal record held by a quorum
// holder (the replicated counterpart of a journal append).
type JournalItem struct {
	Seq  uint64
	Blk  BlockID
	Off  int64
	Data []byte
}

// JournalFetchResp returns a holder's retained journal records for one
// (failed, surrogate) pair, in arrival order: a record's Seq is assigned
// before its replication round, so concurrent rounds can land out of Seq
// order.
type JournalFetchResp struct {
	Items []JournalItem
	Err   error
}

// ReplayUpdate carries one recovered log/journal record to the (possibly
// remapped) home OSD, which merges it through its engine's Update.
type ReplayUpdate struct {
	Blk  BlockID
	Off  int64
	Data []byte
	Sum  uint32 // CRC-32C of Data, verified before the engine's Update runs
	Span SpanCtx
}

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

// EpochResp returns the (staged or committed) epoch number.
type EpochResp struct {
	Epoch uint64
	Err   error
}

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

// PGCutover tells the MDS that one placement group's blocks (and logs) are
// in place at their new-epoch homes: the MDS atomically flips the PG's
// authoritative epoch, after which stale-epoch clients are bounced to
// re-resolve. It must be sent under the migration fence.
type PGCutover struct {
	PG    uint32
	Epoch uint64
}

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

// ReplicaRetire tells a replica holder to drop every replicated, unrecycled
// DataLog item it keeps on behalf of Node for block Blk — sent after
// MigrateLog extracted those records, so a later failure of Node cannot
// replay stale pre-migration items over the block's new home.
type ReplicaRetire struct {
	Node NodeID
	Blk  BlockID
}

// PGAbort tells the MDS that one placement group's migration was rolled
// back to the prior epoch before any of its overlay was extracted:
// partially copied blocks at the staged-epoch destinations were retired,
// so the PG must keep resolving under the committed map. At
// commit time the abort becomes a physical remap (block stays at its old
// home) rather than a map change, mirroring how recovery overrides
// placement. It must name the in-flight staged epoch.
type PGAbort struct {
	PG    uint32
	Epoch uint64
}

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
