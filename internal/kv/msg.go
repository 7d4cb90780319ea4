package kv

import (
	"fmt"

	"yesquel/internal/wire"
)

// RPC method names served by a storage server.
const (
	// MethodReadPart and MethodReadBatch are the one read there is — a
	// window of an object at a snapshot (ReadBatchItem) — in its two
	// encodings: one item, or N items answered at one snapshot in a
	// single RPC.
	MethodReadPart   = "kv.readpart"
	MethodReadBatch  = "kv.readbatch"
	MethodPrepare    = "kv.prepare"
	MethodCommit     = "kv.commit"
	MethodAbort      = "kv.abort"
	MethodFastCommit = "kv.fastcommit"
	MethodPing       = "kv.ping"
	// MethodMirrorBatch carries a contiguous run of stream records from
	// a primary to one of its backups in one round trip (see
	// kvserver.Store.AttachMirrorMember). The backup applies the batch
	// only at its own stream head; otherwise it answers with a
	// StreamGapError naming that head, and the primary resends from there
	// out of its retained log. One acknowledgment covers the whole batch
	// and is the backup's lease grant to the primary; an empty batch is
	// the primary's heartbeat. A backup the retained log cannot catch up
	// is sent a state snapshot the same way, in chunks.
	MethodMirrorBatch = "kv.mirrorbatch"
	// MethodDirectory returns the server's slot directory (the
	// slot→group map fixed at cluster formation; see Directory). A
	// client calls it once, after it opens.
	MethodDirectory = "kv.directory"
)

// Every message below describes its layout once, as a wire method that
// hands each field in order to a wire.Codec; Encode and Decode* run that
// method in one direction or the other. A reply's AppendTo encodes it
// straight into the server's reply frame as the frame's length-prefixed
// body (rpc.AppendHandler): a sizing pass, the length, then the fields,
// where Encode would build it apart for the frame to copy. The fewest
// bytes a list element can take — what a decoded count is checked
// against before anything is allocated for it — is the encoding of the
// element's smallest value.
var (
	minOpSize         = wire.Size(&Op{Kind: OpDelete}, (*Op).wire)
	minCellSize       = wire.Size(&Cell{}, (*Cell).wire)
	minReplRecordSize = wire.Size(&ReplRecord{}, (*ReplRecord).wire)
	minReadItemSize   = wire.Size(&ReadBatchItem{}, (*ReadBatchItem).wire)
	minReadResultSize = wire.Size(&ReadBatchResult{}, (*ReadBatchResult).wire)
)

// decode reads a message from the payload p by its field list, copying
// its byte strings out of p: a server keeps what a request carries.
func decode[M any](p []byte, fields func(*M, *wire.Codec)) (*M, error) {
	return wire.Decode(p, ErrBadRequest, fields)
}

// decodeReply reads a read reply in place (wire.DecodeInPlace): its keys
// and values alias p, the fresh frame the rpc client handed over, so a
// scan's cells cost their bytes once, in the frame. Whoever keeps one
// past the statement that read it either copies it (the inner-node cache:
// Value.Clone) or pins the frame (a scan's SQL rows: sql.rowSlab).
func decodeReply[M any](p []byte, fields func(*M, *wire.Codec)) (*M, error) {
	return wire.DecodeInPlace(p, ErrBadRequest, fields)
}

// Replication record kinds. The replication stream (mirror batches, the
// retained log they are resent from, and the write-ahead log) is a
// totally ordered sequence of these records; replicas that apply the
// same prefix hold the same multi-version state *and* the same
// prepared-transaction table, so a promoted backup can finish or roll
// back in-flight two-phase transactions instead of stranding them.
const (
	// RecCommit is a whole committed transaction: ops applied at TS.
	// Single-participant fast commits use it.
	RecCommit uint8 = 0
	// RecPrepare stages a two-phase transaction's ops and write locks
	// (phase one). TS is the participant's proposed commit timestamp.
	RecPrepare uint8 = 1
	// RecDecide resolves a previously replicated prepare (phase two):
	// Commit says whether to apply (at TS) or discard the staged ops.
	RecDecide uint8 = 2
	// RecEpoch installs a new configuration epoch and membership. The
	// record's Epoch field carries the NEW epoch (all other record kinds
	// are stamped with the epoch in effect when they were emitted), and
	// Members lists the replica addresses of the new configuration,
	// acting primary first. Promotion and group re-formation are epoch
	// bumps flowing through the same totally ordered stream as data.
	RecEpoch uint8 = 3
)

// maxMembers bounds a decoded membership list (sanity, not policy).
const maxMembers = 64

// ReplRecord is one record in a primary's replication stream.
type ReplRecord struct {
	Kind    uint8
	Epoch   uint64 // group epoch when emitted; for RecEpoch, the new epoch
	TxID    uint64
	TS      Timestamp // commit timestamp; for RecPrepare, the proposed timestamp
	Commit  bool      // RecDecide only: commit (true) or abort (false)
	Ops     []*Op     // RecCommit / RecPrepare payload; nil for RecDecide
	Members []string  // RecEpoch only: new membership, acting primary first
}

func (rec *ReplRecord) wire(c *wire.Codec) {
	c.Byte(&rec.Kind)
	if rec.Kind > RecEpoch {
		c.Fail(fmt.Errorf("%w: replication record kind %d", ErrBadRequest, rec.Kind))
	}
	c.Uvarint(&rec.Epoch)
	c.Uint64(&rec.TxID)
	wire.U64(c, &rec.TS)
	c.Bool(&rec.Commit)
	WireOps(&rec.Ops, c)
	wireMembers(c, &rec.Members)
}

// EncodeReplRecord appends rec's canonical serialization — shared by
// mirror batches and the write-ahead log, so the two stay
// byte-for-byte interchangeable.
func EncodeReplRecord(b *wire.Buffer, rec *ReplRecord) { wire.EncodeTo(b, rec, (*ReplRecord).wire) }

// DecodeReplRecord is the inverse of EncodeReplRecord.
func DecodeReplRecord(r *wire.Reader) (ReplRecord, error) {
	var rec ReplRecord
	err := wire.DecodeFrom(r, &rec, ErrBadRequest, (*ReplRecord).wire)
	return rec, err
}

// wireMembers codes a membership list, acting primary first.
func wireMembers(c *wire.Codec, members *[]string) {
	c.Strings(members)
	if c.Decoding() && len(*members) > maxMembers {
		c.Fail(fmt.Errorf("%w: membership of %d replicas", ErrBadRequest, len(*members)))
	}
}

// MirrorBatchReq replicates a contiguous run of stream records to a
// backup in one RPC. From is the first record's position in the
// primary's replication stream (the records follow in order), and the
// batch may be empty: a new member's first batch is an empty one at the
// primary's head, the probe that learns the backup's head, and a member
// the primary has sent nothing for a while gets an empty one as a
// heartbeat that renews the lease its ack grants. Epoch is the
// epoch the sender's stream had installed when it sent: a backup in a
// later epoch refuses the batch, since the sender was deposed. The
// records themselves keep the epochs they were emitted in.
//
// A batch with no records and a Snap piece is one chunk of a state
// snapshot pushed to a backup the retained log cannot catch up: From is
// the stream position the snapshot covers, Off the piece's byte offset
// in it, and Last marks the chunk after which the backup installs it.
type MirrorBatchReq struct {
	From  uint64
	Epoch uint64
	Recs  []ReplRecord
	Off   uint64
	Snap  []byte
	Last  bool
}

func (m *MirrorBatchReq) wire(c *wire.Codec) {
	c.Uvarint(&m.From)
	c.Uvarint(&m.Epoch)
	wire.Slice(c, &m.Recs, minReplRecordSize)
	for i := range m.Recs {
		m.Recs[i].wire(c)
	}
	c.Uvarint(&m.Off)
	c.Bytes(&m.Snap)
	c.Bool(&m.Last)
}

func (m *MirrorBatchReq) Encode() []byte { return wire.Encode(m, (*MirrorBatchReq).wire) }

func DecodeMirrorBatchReq(p []byte) (*MirrorBatchReq, error) {
	return decode(p, (*MirrorBatchReq).wire)
}

// ReadBatchItem is the one read there is: the cells of OID with keys in
// [floor(From), To), at most Max of them (0 = unlimited), where
// floor(From) is the greatest cell key <= From. The floor semantics
// serve both leaf point reads (the cell equal to the key, if any) and
// inner-node routing (the child pointer covering the key) without
// shipping the whole node. The zero window — nil From, nil To, Max 0 —
// is the whole object, and a plain value always comes back whole. The
// supervalue's attributes and fence keys come back with every window,
// plus the node's total cell count, so fence checks and split
// heuristics work on the window.
//
// An item with Part unset asks for the whole object whatever From, To
// and Max hold: Windowed gives it the zero window, which the decoder and
// kvclient.Tx.readItem apply on the way in, so nothing past them reads
// Part.
type ReadBatchItem struct {
	OID  OID
	Part bool
	From []byte
	To   []byte // nil = unbounded
	Max  uint32 // 0 = unlimited
}

// Windowed returns it with the window it means (see ReadBatchItem).
func (it ReadBatchItem) Windowed() ReadBatchItem {
	if !it.Part {
		it.From, it.To, it.Max = nil, nil, 0
	}
	return it
}

func (it *ReadBatchItem) wire(c *wire.Codec) {
	wire.U64(c, &it.OID)
	c.Bool(&it.Part)
	c.Bytes(&it.From)
	c.Bytes(&it.To)
	hasTo := it.To != nil
	c.Bool(&hasTo)
	c.Uint32(&it.Max)
	if c.Decoding() {
		if !hasTo {
			it.To = nil
		}
		*it = it.Windowed()
	}
}

// ReadBatchResult is the answer to one item: the windowed supervalue
// (or whole plain value) and the cell count of the full node, the
// window's own length when the window is the whole object. Found is
// false, and the rest zero, for an object absent at the snapshot —
// absence is a normal outcome of a read, not an error.
type ReadBatchResult struct {
	Found   bool
	Version Timestamp
	Value   *Value
	Total   uint32
}

func (res *ReadBatchResult) wire(c *wire.Codec) {
	c.Bool(&res.Found)
	wire.U64(c, &res.Version)
	WireValue(&res.Value, c)
	c.Uint32(&res.Total)
}

// ReadPartReq asks for one item at Snap; ReadBatchReq asks for N at one
// snapshot in a single RPC. Epoch is the replication-group epoch the
// client believes current (0 = not yet learned): the server rejects a
// stale one with ErrWrongEpoch so the client adopts the new membership
// before retrying. Admission — epoch, lease, slot ownership — is
// decided ONCE per request: either every item may be served or the
// request is rejected, so a batch never mixes admission decisions
// mid-flight.
type ReadPartReq struct {
	Snap  Timestamp
	Epoch uint64
	Item  ReadBatchItem
}

type ReadBatchReq struct {
	Snap  Timestamp
	Epoch uint64
	Items []ReadBatchItem
}

func (m *ReadPartReq) wire(c *wire.Codec) {
	wire.U64(c, &m.Snap)
	c.Uvarint(&m.Epoch)
	m.Item.wire(c)
}

func (m *ReadPartReq) Encode() []byte { return wire.Encode(m, (*ReadPartReq).wire) }

func DecodeReadPartReq(p []byte) (*ReadPartReq, error) { return decode(p, (*ReadPartReq).wire) }

func (m *ReadBatchReq) wire(c *wire.Codec) {
	wire.U64(c, &m.Snap)
	c.Uvarint(&m.Epoch)
	wire.Slice(c, &m.Items, minReadItemSize)
	for i := range m.Items {
		m.Items[i].wire(c)
	}
}

func (m *ReadBatchReq) Encode() []byte { return wire.Encode(m, (*ReadBatchReq).wire) }

func DecodeReadBatchReq(p []byte) (*ReadBatchReq, error) { return decode(p, (*ReadBatchReq).wire) }

// ReadPartResp answers a ReadPartReq: the item's result, flattened,
// then Clock — the server's HLC reading, merged into the client clock
// (every message carries a timestamp; see internal/clock).
type ReadPartResp struct {
	Found   bool
	Version Timestamp
	Value   *Value
	Total   uint32
	Clock   Timestamp
}

func (m *ReadPartResp) wire(c *wire.Codec) {
	res := ReadBatchResult{Found: m.Found, Version: m.Version, Value: m.Value, Total: m.Total}
	res.wire(c)
	if c.Decoding() {
		m.Found, m.Version, m.Value, m.Total = res.Found, res.Version, res.Value, res.Total
	}
	wire.U64(c, &m.Clock)
}

func (m *ReadPartResp) Encode() []byte { return wire.Encode(m, (*ReadPartResp).wire) }

func (m *ReadPartResp) AppendTo(b *wire.Buffer) {
	b.PutUvarint(uint64(wire.Size(m, (*ReadPartResp).wire)))
	wire.EncodeTo(b, m, (*ReadPartResp).wire)
}

func DecodeReadPartResp(p []byte) (*ReadPartResp, error) { return decodeReply(p, (*ReadPartResp).wire) }

// ReadBatchResp answers a ReadBatchReq: one result per item,
// positionally, then the Clock a ReadPartResp carries.
type ReadBatchResp struct {
	Results []ReadBatchResult
	Clock   Timestamp
}

func (m *ReadBatchResp) wire(c *wire.Codec) {
	wire.Slice(c, &m.Results, minReadResultSize)
	for i := range m.Results {
		m.Results[i].wire(c)
	}
	wire.U64(c, &m.Clock)
}

func (m *ReadBatchResp) AppendTo(b *wire.Buffer) {
	b.PutUvarint(uint64(wire.Size(m, (*ReadBatchResp).wire)))
	wire.EncodeTo(b, m, (*ReadBatchResp).wire)
}

func DecodeReadBatchResp(p []byte) (*ReadBatchResp, error) {
	return decodeReply(p, (*ReadBatchResp).wire)
}

// WindowCells returns the cells of v with keys in [floor(from), to),
// capped at max (0 = unlimited). The returned slice aliases v's cells;
// callers treat it as immutable (its capacity is clipped, so an append
// cannot reach them).
func (v *Value) WindowCells(from, to []byte, max uint32) []Cell {
	start := floorIndex(v.Cells, from)
	end := len(v.Cells)
	if to != nil {
		end, _ = v.cellIndex(to)
	}
	if end < start {
		end = start
	}
	if max > 0 && end-start > int(max) {
		end = start + int(max)
	}
	return v.Cells[start:end:end]
}

// floorIndex returns where a window from from starts in the sorted
// cells: the cell with key from, else its predecessor, else the first
// cell. A nil from starts at the first cell.
func floorIndex(cells []Cell, from []byte) int {
	if from == nil {
		return 0
	}
	i, found := cellIndex(cells, from)
	if !found && i > 0 {
		i-- // floor: include the predecessor cell
	}
	return i
}

// PrepareReq is phase one of two-phase commit: validate write-write
// conflicts and lock the written objects.
type PrepareReq struct {
	TxID  uint64
	Start Timestamp
	Ops   []*Op
	Epoch uint64 // group epoch the client believes current (0 = not yet learned)
}

func (m *PrepareReq) wire(c *wire.Codec) {
	c.Uint64(&m.TxID)
	wire.U64(c, &m.Start)
	WireOps(&m.Ops, c)
	c.Uvarint(&m.Epoch)
}

func (m *PrepareReq) Encode() []byte { return wire.Encode(m, (*PrepareReq).wire) }

func DecodePrepareReq(p []byte) (*PrepareReq, error) { return decode(p, (*PrepareReq).wire) }

// PrepareResp is a yes vote: Proposed is this participant's lower bound
// for the commit timestamp. A no vote is an error reply. Cells holds,
// for each OpCmpMaxCells op of the request in op order, the cell count
// of its object with the transaction's ops applied: what the commit, if
// it is decided, leaves there.
type PrepareResp struct {
	Proposed Timestamp
	Clock    Timestamp
	Cells    []uint64
}

func (m *PrepareResp) wire(c *wire.Codec) {
	wire.U64(c, &m.Proposed)
	wire.U64(c, &m.Clock)
	wireCells(c, &m.Cells)
}

func (m *PrepareResp) AppendTo(b *wire.Buffer) {
	b.PutUvarint(uint64(wire.Size(m, (*PrepareResp).wire)))
	wire.EncodeTo(b, m, (*PrepareResp).wire)
}

func DecodePrepareResp(p []byte) (*PrepareResp, error) { return decode(p, (*PrepareResp).wire) }

// CommitReq is phase two: make the transaction's writes visible at
// CommitTS and release its locks.
type CommitReq struct {
	TxID     uint64
	CommitTS Timestamp
	Epoch    uint64 // group epoch the client believes current (0 = not yet learned)
}

func (m *CommitReq) wire(c *wire.Codec) {
	c.Uint64(&m.TxID)
	wire.U64(c, &m.CommitTS)
	c.Uvarint(&m.Epoch)
}

func (m *CommitReq) Encode() []byte { return wire.Encode(m, (*CommitReq).wire) }

func DecodeCommitReq(p []byte) (*CommitReq, error) { return decode(p, (*CommitReq).wire) }

// AbortReq discards the transaction's locks and staged writes.
type AbortReq struct {
	TxID  uint64
	Epoch uint64 // group epoch the client believes current (0 = not yet learned)
}

func (m *AbortReq) wire(c *wire.Codec) {
	c.Uint64(&m.TxID)
	c.Uvarint(&m.Epoch)
}

func (m *AbortReq) Encode() []byte { return wire.Encode(m, (*AbortReq).wire) }

func DecodeAbortReq(p []byte) (*AbortReq, error) { return decode(p, (*AbortReq).wire) }

// FastCommitReq commits a single-participant transaction in one round
// trip: validate, choose a commit timestamp, and apply atomically.
type FastCommitReq struct {
	TxID  uint64
	Start Timestamp
	Ops   []*Op
	Epoch uint64 // group epoch the client believes current (0 = not yet learned)
}

func (m *FastCommitReq) wire(c *wire.Codec) {
	c.Uint64(&m.TxID)
	wire.U64(c, &m.Start)
	WireOps(&m.Ops, c)
	c.Uvarint(&m.Epoch)
}

func (m *FastCommitReq) Encode() []byte { return wire.Encode(m, (*FastCommitReq).wire) }

func DecodeFastCommitReq(p []byte) (*FastCommitReq, error) {
	return decode(p, (*FastCommitReq).wire)
}

// FastCommitResp reports a fast commit that committed; one that did not
// is an error reply. Cells holds, for each OpCmpMaxCells op of the
// request in op order, the cell count the commit left its object with:
// how a writer that added cells without reading the object learns that
// it grew the object past a limit of its own (a tree's split threshold).
type FastCommitResp struct {
	CommitTS Timestamp
	Clock    Timestamp
	Cells    []uint64
}

func (m *FastCommitResp) wire(c *wire.Codec) {
	wire.U64(c, &m.CommitTS)
	wire.U64(c, &m.Clock)
	wireCells(c, &m.Cells)
}

func (m *FastCommitResp) AppendTo(b *wire.Buffer) {
	b.PutUvarint(uint64(wire.Size(m, (*FastCommitResp).wire)))
	wire.EncodeTo(b, m, (*FastCommitResp).wire)
}

func DecodeFastCommitResp(p []byte) (*FastCommitResp, error) {
	return decode(p, (*FastCommitResp).wire)
}

// wireCells codes a commit reply's cell counts: a count, then one
// uvarint each, so a hostile count is refused against the frame's length
// before anything is allocated.
func wireCells(c *wire.Codec, cells *[]uint64) {
	wire.Slice(c, cells, 1)
	for i := range *cells {
		c.Uvarint(&(*cells)[i])
	}
}

// Ack is the generic response for commit/abort/ping/mirror. It
// piggybacks the responding member's replication-group epoch and
// membership (acting primary first), so
// a fresh client learns the live configuration from its opening pings
// and every later ack keeps it current without extra round trips.
type Ack struct {
	Clock   Timestamp
	Epoch   uint64
	Members []string
}

func (m *Ack) wire(c *wire.Codec) {
	wire.U64(c, &m.Clock)
	c.Uvarint(&m.Epoch)
	wireMembers(c, &m.Members)
}

func (m *Ack) AppendTo(b *wire.Buffer) {
	b.PutUvarint(uint64(wire.Size(m, (*Ack).wire)))
	wire.EncodeTo(b, m, (*Ack).wire)
}

func DecodeAck(p []byte) (*Ack, error) { return decode(p, (*Ack).wire) }
