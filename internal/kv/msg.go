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
	// kvserver.Server.AttachBackupMember). The backup applies the records in order (the
	// per-record sequence check still catches gaps and divergence
	// inside a batch) and one acknowledgment covers, and extends the
	// lease for, the whole batch.
	MethodMirrorBatch = "kv.mirrorbatch"
	// MethodSync streams missed commits from a primary's replication
	// log to a restarted or fresh backup (see kvserver.Server.SyncFrom).
	MethodSync = "kv.sync"
	// MethodSnap transfers a state snapshot, in chunks, to a backup
	// whose requested sync position predates the server's truncated
	// replication log (SyncResp.TooOld). The backup installs the
	// snapshot and resumes a normal log-tail sync from the sequence
	// number the snapshot covers.
	MethodSnap = "kv.snap"
	// MethodLease renews the primary's lease on its backup: the backup
	// promises not to accept a promotion (epoch bump) until the granted
	// lease expires, so a partitioned stale primary provably stops
	// serving before a new epoch starts acknowledging writes.
	MethodLease = "kv.lease"
	// MethodDirectory returns the server's current slot directory (the
	// versioned slot→group map; see Directory). Clients call it when an
	// ack's DirVersion piggyback or an ErrWrongSlot redirect reveals a
	// newer version than the one they hold.
	MethodDirectory = "kv.directory"
)

// Replication record kinds. The replication stream (mirror RPCs, the
// replication log served by MethodSync, and the write-ahead log) is a
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

// EncodeReplRecord appends rec's canonical serialization — shared by
// mirror RPCs, sync batches, and the write-ahead log, so the three
// stay byte-for-byte interchangeable.
func EncodeReplRecord(b *wire.Buffer, rec *ReplRecord) {
	b.PutByte(rec.Kind)
	b.PutUvarint(rec.Epoch)
	b.PutUint64(rec.TxID)
	b.PutUint64(uint64(rec.TS))
	b.PutBool(rec.Commit)
	encodeOps(b, rec.Ops)
	encodeMembers(b, rec.Members)
}

// DecodeReplRecord is the inverse of EncodeReplRecord.
func DecodeReplRecord(r *wire.Reader) (ReplRecord, error) {
	var rec ReplRecord
	var err error
	if rec.Kind, err = r.Byte(); err != nil {
		return rec, err
	}
	if rec.Kind > RecEpoch {
		return rec, fmt.Errorf("%w: replication record kind %d", ErrBadRequest, rec.Kind)
	}
	if rec.Epoch, err = r.Uvarint(); err != nil {
		return rec, err
	}
	if rec.TxID, err = r.Uint64(); err != nil {
		return rec, err
	}
	ts, err := r.Uint64()
	if err != nil {
		return rec, err
	}
	rec.TS = Timestamp(ts)
	if rec.Commit, err = r.Bool(); err != nil {
		return rec, err
	}
	if rec.Ops, err = decodeOps(r); err != nil {
		return rec, err
	}
	if rec.Members, err = decodeMembers(r); err != nil {
		return rec, err
	}
	return rec, nil
}

func encodeMembers(b *wire.Buffer, members []string) {
	b.PutUvarint(uint64(len(members)))
	for _, m := range members {
		b.PutString(m)
	}
}

func decodeMembers(r *wire.Reader) ([]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxMembers {
		return nil, fmt.Errorf("%w: membership of %d replicas", ErrBadRequest, n)
	}
	members := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		m, err := r.String()
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// LeaseReq renews the primary's lease on its backup. Epoch is the
// primary's current group epoch; a backup that has moved to a later
// epoch rejects the renewal with ErrWrongEpoch, which is how a deposed
// primary learns it was superseded. Watermark piggybacks the primary's
// durability watermark (every record below it is quorum-acked and
// fsynced), so a backup's follower-read frontier keeps advancing even
// through write-idle periods when no mirror batches flow.
type LeaseReq struct {
	Epoch     uint64
	Watermark uint64
}

func (m *LeaseReq) Encode() []byte {
	b := wire.NewBuffer(12)
	b.PutUvarint(m.Epoch)
	b.PutUvarint(m.Watermark)
	return b.Bytes()
}

func DecodeLeaseReq(p []byte) (*LeaseReq, error) {
	r := wire.NewReader(p)
	epoch, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	m := &LeaseReq{Epoch: epoch}
	if m.Watermark, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

// MirrorBatchReq replicates a contiguous run of stream records to a
// backup in one RPC. Records are in strict sequence order — each Seq is
// the record's position in the primary's replication stream — and the
// backup applies them one by one under a single stream-lock
// acquisition, so a gap means the backup missed records and must resync
// before mirroring can resume. Watermark piggybacks the primary's durability
// watermark as of the batch's departure (every record below it is
// quorum-acked and fsynced): the backup advances its follower-read
// frontier with it, at zero extra round trips.
type MirrorBatchReq struct {
	Recs      []SyncRec
	Watermark uint64
}

func (m *MirrorBatchReq) Encode() []byte {
	b := wire.NewBuffer(64 * (1 + len(m.Recs)))
	b.PutUvarint(uint64(len(m.Recs)))
	for i := range m.Recs {
		b.PutUvarint(m.Recs[i].Seq)
		EncodeReplRecord(b, &m.Recs[i].Rec)
	}
	b.PutUvarint(m.Watermark)
	return b.Bytes()
}

func DecodeMirrorBatchReq(p []byte) (*MirrorBatchReq, error) {
	r := wire.NewReader(p)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each record costs at least two bytes on the wire, so a count the
	// remaining payload cannot possibly hold is garbage — rejected
	// BEFORE the allocation it would otherwise size.
	if n > uint64(len(p))/2 {
		return nil, fmt.Errorf("%w: mirror batch of %d records in %d bytes", ErrBadRequest, n, len(p))
	}
	m := &MirrorBatchReq{Recs: make([]SyncRec, 0, n)}
	for i := uint64(0); i < n; i++ {
		var rec SyncRec
		if rec.Seq, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if rec.Rec, err = DecodeReplRecord(r); err != nil {
			return nil, err
		}
		m.Recs = append(m.Recs, rec)
	}
	if m.Watermark, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

// SyncReq asks a primary for its replication log starting at sequence
// number From, at most Max records per response (0 = server default).
// Epoch is the epoch the requester's own stream had installed at its
// head (its stream epoch, not an out-of-band adopted one): a source
// whose stream carried a different epoch at position From rejects the
// sync with ErrDiverged — the requester holds records the source's
// stream re-stamped, and replaying the tail onto them would splice two
// histories.
type SyncReq struct {
	From  uint64
	Max   uint32
	Epoch uint64
}

func (m *SyncReq) Encode() []byte {
	b := wire.NewBuffer(24)
	b.PutUvarint(m.From)
	b.PutUint32(m.Max)
	b.PutUvarint(m.Epoch)
	return b.Bytes()
}

func DecodeSyncReq(p []byte) (*SyncReq, error) {
	r := wire.NewReader(p)
	m := &SyncReq{}
	var err error
	if m.From, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if m.Max, err = r.Uint32(); err != nil {
		return nil, err
	}
	if m.Epoch, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

// SyncRec is one replicated stream record in a sync response.
type SyncRec struct {
	Seq uint64
	Rec ReplRecord
}

// SyncResp carries a slice of the primary's replication log. Head is
// the primary's next sequence number at response time, so the caller
// knows how far behind it still is. TooOld reports that the requested
// position predates LogBase — the server truncated its log below it at
// a snapshot checkpoint — so no records can answer the request: the
// caller must install a state snapshot (MethodSnap) and resume the
// log-tail sync from the sequence number the snapshot covers.
type SyncResp struct {
	Records []SyncRec
	Head    uint64
	Clock   Timestamp
	TooOld  bool
	LogBase uint64 // oldest sequence number still in the server's log
}

func (m *SyncResp) Encode() []byte {
	b := wire.NewBuffer(64)
	b.PutUvarint(uint64(len(m.Records)))
	for i := range m.Records {
		rec := &m.Records[i]
		b.PutUvarint(rec.Seq)
		EncodeReplRecord(b, &rec.Rec)
	}
	b.PutUvarint(m.Head)
	b.PutUint64(uint64(m.Clock))
	b.PutBool(m.TooOld)
	b.PutUvarint(m.LogBase)
	return b.Bytes()
}

func DecodeSyncResp(p []byte) (*SyncResp, error) {
	r := wire.NewReader(p)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// Same allocation guard as DecodeMirrorBatchReq: a record count the
	// payload cannot hold must not size an allocation.
	if n > uint64(len(p))/2 {
		return nil, ErrBadRequest
	}
	m := &SyncResp{Records: make([]SyncRec, 0, n)}
	for i := uint64(0); i < n; i++ {
		var rec SyncRec
		if rec.Seq, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if rec.Rec, err = DecodeReplRecord(r); err != nil {
			return nil, err
		}
		m.Records = append(m.Records, rec)
	}
	if m.Head, err = r.Uvarint(); err != nil {
		return nil, err
	}
	ck, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Clock = Timestamp(ck)
	if m.TooOld, err = r.Bool(); err != nil {
		return nil, err
	}
	if m.LogBase, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

// SnapReq asks for one chunk of a state snapshot. ID 0 begins a new
// transfer: the server captures a fresh snapshot at its current stream
// head, assigns a session id, and answers with chunk 0; the caller then
// requests the remaining chunks carrying the assigned ID. Chunks of one
// session are slices of a single consistent snapshot — mixing IDs would
// splice two different states, so the server rejects unknown sessions
// instead of guessing.
type SnapReq struct {
	ID    uint64
	Chunk uint32
}

func (m *SnapReq) Encode() []byte {
	b := wire.NewBuffer(16)
	b.PutUvarint(m.ID)
	b.PutUint32(m.Chunk)
	return b.Bytes()
}

func DecodeSnapReq(p []byte) (*SnapReq, error) {
	r := wire.NewReader(p)
	m := &SnapReq{}
	var err error
	if m.ID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if m.Chunk, err = r.Uint32(); err != nil {
		return nil, err
	}
	return m, nil
}

// SnapResp carries one chunk of a state snapshot. Seq is the stream
// sequence number the snapshot covers (the installer's log-tail sync
// resumes there); Chunks is the total count, so the caller knows when
// the transfer is complete. Data is an opaque slice of the snapshot's
// canonical encoding — the storage layer owns the format.
type SnapResp struct {
	ID     uint64
	Seq    uint64
	Chunk  uint32
	Chunks uint32
	Data   []byte
	Clock  Timestamp
}

func (m *SnapResp) Encode() []byte {
	b := wire.NewBuffer(48 + len(m.Data))
	b.PutUvarint(m.ID)
	b.PutUvarint(m.Seq)
	b.PutUint32(m.Chunk)
	b.PutUint32(m.Chunks)
	b.PutBytes(m.Data)
	b.PutUint64(uint64(m.Clock))
	return b.Bytes()
}

func DecodeSnapResp(p []byte) (*SnapResp, error) {
	r := wire.NewReader(p)
	m := &SnapResp{}
	var err error
	if m.ID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if m.Seq, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if m.Chunk, err = r.Uint32(); err != nil {
		return nil, err
	}
	if m.Chunks, err = r.Uint32(); err != nil {
		return nil, err
	}
	if m.Data, err = r.BytesCopy(); err != nil {
		return nil, err
	}
	ck, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Clock = Timestamp(ck)
	return m, nil
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

// minReadItemSize and minReadResultSize are the fewest bytes an item
// and a result occupy on the wire (empty keys, nil value). The batch
// decoders bound a claimed count by them BEFORE the allocation it would
// size, so a garbage frame cannot make its receiver allocate more than
// a small multiple of the frame's own length. readHeaderMax bounds the
// bytes ahead of a request's items: Snap, then Epoch and the item count
// as uvarints.
const (
	minReadItemSize   = 8 + 1 + 1 + 1 + 1 + 4
	minReadResultSize = 1 + 8 + 1 + 4
	readHeaderMax     = 8 + 10 + 10
)

// readItemSize bounds it's encoded length from above (a key's length
// prefix is at most five bytes, one of them in minReadItemSize).
func readItemSize(it *ReadBatchItem) int {
	return minReadItemSize + 2*4 + len(it.From) + len(it.To)
}

func encodeReadItem(b *wire.Buffer, it *ReadBatchItem) {
	b.PutUint64(uint64(it.OID))
	b.PutBool(it.Part)
	b.PutBytes(it.From)
	b.PutBytes(it.To)
	b.PutBool(it.To != nil)
	b.PutUint32(it.Max)
}

func decodeReadItem(r *wire.Reader, it *ReadBatchItem) error {
	oid, err := r.Uint64()
	if err != nil {
		return err
	}
	it.OID = OID(oid)
	if it.Part, err = r.Bool(); err != nil {
		return err
	}
	if it.From, err = r.BytesCopy(); err != nil {
		return err
	}
	to, err := r.BytesCopy()
	if err != nil {
		return err
	}
	hasTo, err := r.Bool()
	if err != nil {
		return err
	}
	if hasTo {
		it.To = to
	}
	if it.Max, err = r.Uint32(); err != nil {
		return err
	}
	*it = it.Windowed()
	return nil
}

func encodeReadResult(b *wire.Buffer, res *ReadBatchResult) {
	b.PutBool(res.Found)
	b.PutUint64(uint64(res.Version))
	EncodeValue(b, res.Value)
	b.PutUint32(res.Total)
}

func decodeReadResult(r *wire.Reader, res *ReadBatchResult) error {
	var err error
	if res.Found, err = r.Bool(); err != nil {
		return err
	}
	ver, err := r.Uint64()
	if err != nil {
		return err
	}
	res.Version = Timestamp(ver)
	if res.Value, err = DecodeValue(r); err != nil {
		return err
	}
	res.Total, err = r.Uint32()
	return err
}

// ReadPartReq asks for one item at Snap; ReadBatchReq asks for N at one
// snapshot in a single RPC. Epoch is the replication-group epoch the
// client believes current (0 = not yet learned): the server rejects a
// stale one with ErrWrongEpoch so the client adopts the new membership
// before retrying. Admission — epoch, follower-read frontier, slot
// ownership — is decided ONCE per request: either every item may be
// served or the request is rejected, so a batch never mixes replicas or
// admission decisions mid-flight.
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

// ReadPartResp answers a ReadPartReq: the item's result, flattened,
// then Clock — the server's HLC reading, merged into the client clock
// (every message carries a timestamp; see internal/clock) — and
// Frontier, the serving replica's own durability frontier, the same
// value Ack.Frontier piggybacks. A follower-reading client snapshots
// its next transactions at the highest frontier a backup has REPORTED
// rather than the primary-fresh one, so steady-state reads never arrive
// ahead of the backup's watermark copy.
type ReadPartResp struct {
	Found    bool
	Version  Timestamp
	Value    *Value
	Total    uint32
	Clock    Timestamp
	Frontier Timestamp
}

// ReadBatchResp answers a ReadBatchReq: one result per item,
// positionally, then the Clock and Frontier a ReadPartResp carries.
type ReadBatchResp struct {
	Results  []ReadBatchResult
	Clock    Timestamp
	Frontier Timestamp
}

func (m *ReadPartReq) Encode() []byte {
	b := wire.NewBuffer(readHeaderMax + readItemSize(&m.Item))
	b.PutUint64(uint64(m.Snap))
	b.PutUvarint(m.Epoch)
	encodeReadItem(b, &m.Item)
	return b.Bytes()
}

func DecodeReadPartReq(p []byte) (*ReadPartReq, error) {
	r := wire.NewReader(p)
	m := &ReadPartReq{}
	snap, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Snap = Timestamp(snap)
	if m.Epoch, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if err = decodeReadItem(r, &m.Item); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *ReadPartResp) Encode() []byte {
	b := wire.NewBuffer(32 + m.Value.EncodedSize())
	encodeReadResult(b, &ReadBatchResult{Found: m.Found, Version: m.Version, Value: m.Value, Total: m.Total})
	b.PutUint64(uint64(m.Clock))
	b.PutUint64(uint64(m.Frontier))
	return b.Bytes()
}

func DecodeReadPartResp(p []byte) (*ReadPartResp, error) {
	r := wire.NewReader(p)
	var res ReadBatchResult
	if err := decodeReadResult(r, &res); err != nil {
		return nil, err
	}
	m := &ReadPartResp{Found: res.Found, Version: res.Version, Value: res.Value, Total: res.Total}
	ck, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Clock = Timestamp(ck)
	f, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Frontier = Timestamp(f)
	return m, nil
}

func (m *ReadBatchReq) Encode() []byte {
	size := readHeaderMax
	for i := range m.Items {
		size += readItemSize(&m.Items[i])
	}
	b := wire.NewBuffer(size)
	b.PutUint64(uint64(m.Snap))
	b.PutUvarint(m.Epoch)
	b.PutUvarint(uint64(len(m.Items)))
	for i := range m.Items {
		encodeReadItem(b, &m.Items[i])
	}
	return b.Bytes()
}

func DecodeReadBatchReq(p []byte) (*ReadBatchReq, error) {
	r := wire.NewReader(p)
	m := &ReadBatchReq{}
	snap, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Snap = Timestamp(snap)
	if m.Epoch, err = r.Uvarint(); err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining())/minReadItemSize {
		return nil, fmt.Errorf("%w: read batch of %d items in %d bytes", ErrBadRequest, n, len(p))
	}
	m.Items = make([]ReadBatchItem, n)
	for i := range m.Items {
		if err = decodeReadItem(r, &m.Items[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *ReadBatchResp) Encode() []byte {
	size := 10 + 16 // the count, then Clock and Frontier
	for i := range m.Results {
		size += minReadResultSize + m.Results[i].Value.EncodedSize()
	}
	b := wire.NewBuffer(size)
	b.PutUvarint(uint64(len(m.Results)))
	for i := range m.Results {
		encodeReadResult(b, &m.Results[i])
	}
	b.PutUint64(uint64(m.Clock))
	b.PutUint64(uint64(m.Frontier))
	return b.Bytes()
}

func DecodeReadBatchResp(p []byte) (*ReadBatchResp, error) {
	r := wire.NewReader(p)
	m := &ReadBatchResp{}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining())/minReadResultSize {
		return nil, fmt.Errorf("%w: read batch of %d results in %d bytes", ErrBadRequest, n, len(p))
	}
	m.Results = make([]ReadBatchResult, n)
	for i := range m.Results {
		if err = decodeReadResult(r, &m.Results[i]); err != nil {
			return nil, err
		}
	}
	ck, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Clock = Timestamp(ck)
	f, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Frontier = Timestamp(f)
	return m, nil
}

// WindowCells returns the cells of v with keys in [floor(from), to),
// capped at max (0 = unlimited). The returned slice aliases v's cells;
// callers treat it as immutable (its capacity is clipped, so an append
// cannot reach them).
func (v *Value) WindowCells(from, to []byte, max uint32) []Cell {
	start := 0
	if from != nil {
		i, found := v.cellIndex(from)
		switch {
		case found:
			start = i
		case i > 0:
			start = i - 1 // floor: include the predecessor cell
		default:
			start = 0
		}
	}
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

// PrepareReq is phase one of two-phase commit: validate write-write
// conflicts and lock the written objects.
type PrepareReq struct {
	TxID  uint64
	Start Timestamp
	Ops   []*Op
	Epoch uint64 // group epoch the client believes current (0 = not yet learned)
}

// PrepareResp reports the vote. When OK, Proposed is this participant's
// lower bound for the commit timestamp.
type PrepareResp struct {
	OK       bool
	Proposed Timestamp
	Clock    Timestamp
}

// CommitReq is phase two: make the transaction's writes visible at
// CommitTS and release its locks.
type CommitReq struct {
	TxID     uint64
	CommitTS Timestamp
	Epoch    uint64 // group epoch the client believes current (0 = not yet learned)
}

// AbortReq discards the transaction's locks and staged writes.
type AbortReq struct {
	TxID  uint64
	Epoch uint64 // group epoch the client believes current (0 = not yet learned)
}

// FastCommitReq commits a single-participant transaction in one round
// trip: validate, choose a commit timestamp, and apply atomically.
type FastCommitReq struct {
	TxID  uint64
	Start Timestamp
	Ops   []*Op
	Epoch uint64 // group epoch the client believes current (0 = not yet learned)
}

// FastCommitResp reports the outcome of a fast commit. Frontier
// piggybacks the primary's durability frontier like Ack.Frontier does:
// a client that only ever writes through fast commits still keeps its
// follower-read bound fresh at per-commit granularity.
type FastCommitResp struct {
	OK       bool
	CommitTS Timestamp
	Clock    Timestamp
	Frontier Timestamp
}

// Ack is the generic response for commit/abort/ping/mirror/lease. It
// piggybacks the responding member's replication-group epoch and
// membership (acting primary first), so
// a fresh client learns the live configuration from its opening pings
// and every later ack keeps it current without extra round trips.
// Frontier piggybacks the responder's durability frontier — the highest
// commit timestamp at which a snapshot read is quorum-durable — so
// clients learn where follower reads are safe from ordinary traffic
// (including the idle-client heartbeat ping). DirVersion piggybacks the
// responder's slot-directory version: a client holding an older
// version fetches the full map with MethodDirectory.
type Ack struct {
	Clock      Timestamp
	Epoch      uint64
	Members    []string
	Frontier   Timestamp
	DirVersion uint64
}

func encodeOps(b *wire.Buffer, ops []*Op) {
	b.PutUvarint(uint64(len(ops)))
	for _, op := range ops {
		EncodeOp(b, op)
	}
}

func decodeOps(r *wire.Reader) ([]*Op, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(wire.MaxFrameSize) {
		return nil, ErrBadRequest
	}
	ops := make([]*Op, 0, n)
	for i := uint64(0); i < n; i++ {
		op, err := DecodeOp(r)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func (m *PrepareReq) Encode() []byte {
	b := wire.NewBuffer(64)
	b.PutUint64(m.TxID)
	b.PutUint64(uint64(m.Start))
	encodeOps(b, m.Ops)
	b.PutUvarint(m.Epoch)
	return b.Bytes()
}

func DecodePrepareReq(p []byte) (*PrepareReq, error) {
	r := wire.NewReader(p)
	m := &PrepareReq{}
	v, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.TxID = v
	if v, err = r.Uint64(); err != nil {
		return nil, err
	}
	m.Start = Timestamp(v)
	if m.Ops, err = decodeOps(r); err != nil {
		return nil, err
	}
	if m.Epoch, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *PrepareResp) Encode() []byte {
	b := wire.NewBuffer(24)
	b.PutBool(m.OK)
	b.PutUint64(uint64(m.Proposed))
	b.PutUint64(uint64(m.Clock))
	return b.Bytes()
}

func DecodePrepareResp(p []byte) (*PrepareResp, error) {
	r := wire.NewReader(p)
	m := &PrepareResp{}
	var err error
	if m.OK, err = r.Bool(); err != nil {
		return nil, err
	}
	v, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Proposed = Timestamp(v)
	if v, err = r.Uint64(); err != nil {
		return nil, err
	}
	m.Clock = Timestamp(v)
	return m, nil
}

func (m *CommitReq) Encode() []byte {
	b := wire.NewBuffer(28)
	b.PutUint64(m.TxID)
	b.PutUint64(uint64(m.CommitTS))
	b.PutUvarint(m.Epoch)
	return b.Bytes()
}

func DecodeCommitReq(p []byte) (*CommitReq, error) {
	r := wire.NewReader(p)
	tx, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	ts, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	epoch, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	return &CommitReq{TxID: tx, CommitTS: Timestamp(ts), Epoch: epoch}, nil
}

func (m *AbortReq) Encode() []byte {
	b := wire.NewBuffer(20)
	b.PutUint64(m.TxID)
	b.PutUvarint(m.Epoch)
	return b.Bytes()
}

func DecodeAbortReq(p []byte) (*AbortReq, error) {
	r := wire.NewReader(p)
	tx, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	epoch, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	return &AbortReq{TxID: tx, Epoch: epoch}, nil
}

func (m *FastCommitReq) Encode() []byte {
	b := wire.NewBuffer(64)
	b.PutUint64(m.TxID)
	b.PutUint64(uint64(m.Start))
	encodeOps(b, m.Ops)
	b.PutUvarint(m.Epoch)
	return b.Bytes()
}

func DecodeFastCommitReq(p []byte) (*FastCommitReq, error) {
	r := wire.NewReader(p)
	m := &FastCommitReq{}
	v, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.TxID = v
	if v, err = r.Uint64(); err != nil {
		return nil, err
	}
	m.Start = Timestamp(v)
	if m.Ops, err = decodeOps(r); err != nil {
		return nil, err
	}
	if m.Epoch, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *FastCommitResp) Encode() []byte {
	b := wire.NewBuffer(32)
	b.PutBool(m.OK)
	b.PutUint64(uint64(m.CommitTS))
	b.PutUint64(uint64(m.Clock))
	b.PutUint64(uint64(m.Frontier))
	return b.Bytes()
}

func DecodeFastCommitResp(p []byte) (*FastCommitResp, error) {
	r := wire.NewReader(p)
	m := &FastCommitResp{}
	var err error
	if m.OK, err = r.Bool(); err != nil {
		return nil, err
	}
	v, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.CommitTS = Timestamp(v)
	if v, err = r.Uint64(); err != nil {
		return nil, err
	}
	m.Clock = Timestamp(v)
	if v, err = r.Uint64(); err != nil {
		return nil, err
	}
	m.Frontier = Timestamp(v)
	return m, nil
}

func (m *Ack) Encode() []byte {
	b := wire.NewBuffer(48)
	b.PutUint64(uint64(m.Clock))
	b.PutUvarint(m.Epoch)
	encodeMembers(b, m.Members)
	b.PutUint64(uint64(m.Frontier))
	b.PutUvarint(m.DirVersion)
	return b.Bytes()
}

func DecodeAck(p []byte) (*Ack, error) {
	r := wire.NewReader(p)
	v, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	epoch, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	members, err := decodeMembers(r)
	if err != nil {
		return nil, err
	}
	m := &Ack{Clock: Timestamp(v), Epoch: epoch, Members: members}
	fr, err := r.Uint64()
	if err != nil {
		return nil, err
	}
	m.Frontier = Timestamp(fr)
	if m.DirVersion, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}
