// Package kv defines the data model of Yesquel's transactional
// key-value storage system — the lowest layer of the architecture
// (boxes 3 in Figure 1 of the paper), where distributed transactions
// are provided.
//
// Objects are identified by 64-bit OIDs. An OID embeds the id of the
// storage server responsible for it, so placement requires no lookup
// service and the DBT layer can choose where each tree node lives.
//
// An object's value is either a plain byte string or a "supervalue": a
// small structure holding fixed 64-bit attributes, optional lower/upper
// bound keys (used by the DBT for fence keys), and an ordered list of
// cells. Supervalues support delta operations (ListAdd, ListDelRange,
// AttrSet, SetBounds) so that a DBT leaf insert updates one cell
// instead of rewriting the node — the mechanism that keeps Yesquel's
// write amplification low.
//
// The store is multi-versioned; transactions run under snapshot
// isolation (Berenson et al.), with versions tagged by hybrid logical
// clock timestamps (internal/clock).
//
// # Immutability
//
// A Value that has been handed to anyone else is immutable: a version a
// store holds, a value a read returned (Store.ReadPart returns a window
// onto the stored cells, not a copy, whenever no pending op touches it;
// a client's read returns cells whose bytes lie in the reply frame they
// arrived in, see DecodeReadBatchResp), an entry of a transaction's read
// set, a base passed to Op.Apply or Overlay. The same holds for an Op
// once it is staged. Everything below leans on it. A store keeps each
// version as a Layered value: an immutable base plus the list ops
// committed since that base, so a commit costs each replica its ops, not
// a copy of the leaf, and successive versions share the base, the fence
// keys and the ops before their own. Every gatherEvery ops the next
// commit rebases: one private header copy with the ops applied in place,
// then one copy of the cells' bytes into a single allocation, so that
// reading a leaf stays a walk through adjacent memory. The mutating
// methods (Value.ListAdd, ListDelRange, direct field writes) are for
// building a value nobody else has seen yet; whoever needs to edit a
// value it received takes a private copy first with Value.Clone.
//
// # Compare ops
//
// A transaction may stage, beside its writes, ops that write nothing and
// check something: a cell is present, no cell lies in a key range (the
// constraint compares, which a write statement's existence and
// uniqueness checks become), the fences cover a key range, an attribute
// has a value, the cell count is at most N (the route compares, which
// say that a write went to the leaf it was meant for). They are the
// compare items of Sinfonia's minitransactions (Aguilera et al., SOSP
// 2007): each participant evaluates its compares in the first phase of
// the commit — the prepare, or the one-shot fast commit — against the
// newest version under the object's lock, in op order, so a compare
// sees what the transaction's earlier ops on the object leave, and a
// failed compare makes the participant vote no, which aborts the whole
// transaction. A caller that would read only to check a condition can
// send the condition in its commit instead, and save the read's round
// trip; a check made at the newest version under the lock also holds for
// a value no snapshot read could have seen yet (two transactions that
// both read "absent" at their snapshots cannot both commit against it).
//
// Op.Apply of a compare returns its base unchanged, or a *CompareError;
// Overlay skips compares (a read sees the writes, not the checks); a
// compare touches nothing for first-committer-wins and never makes a
// transaction structural. A commit record carries the writes alone, so a
// one-shot commit streams and logs what it did before compares existed;
// a two-phase participant's prepare record carries its compares too,
// because its yes vote promises the compared objects stay locked until
// the decision, on whichever member is primary when it arrives. A
// CompareError crosses the RPC boundary whole, in the detail of an error
// reply of code CodeCompare.
package kv

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"yesquel/internal/clock"
	"yesquel/internal/rpc"
	"yesquel/internal/wire"
)

// OID identifies an object. The top 16 bits name the storage server
// slot; the remainder is assigned by the creator.
type OID uint64

const serverBits = 16

// MakeOID builds an OID owned by server slot, with the given local id.
func MakeOID(slot uint16, local uint64) OID {
	return OID(uint64(slot)<<(64-serverBits) | (local &^ (uint64(0xffff) << (64 - serverBits))))
}

// Slot returns the server slot embedded in the OID.
func (o OID) Slot() uint16 { return uint16(uint64(o) >> (64 - serverBits)) }

// Local returns the server-local part of the OID.
func (o OID) Local() uint64 { return uint64(o) &^ (uint64(0xffff) << (64 - serverBits)) }

func (o OID) String() string { return fmt.Sprintf("oid(%d:%x)", o.Slot(), o.Local()) }

// NumAttrs is the number of 64-bit attribute slots in a supervalue.
// The DBT uses a handful (height, next leaf, tree id); eight matches
// the paper's "small array of attributes".
const NumAttrs = 8

// Cell is one element of a supervalue's ordered list. Cells are kept
// sorted by Key under bytes.Compare; layers above encode typed keys
// order-preservingly.
type Cell struct {
	Key   []byte
	Value []byte
}

// Kind discriminates plain values from supervalues.
type Kind uint8

const (
	// KindPlain is an uninterpreted byte string.
	KindPlain Kind = iota
	// KindSuper is a structured supervalue.
	KindSuper
)

// Value is an object's value at one version.
type Value struct {
	Kind Kind

	// Plain payload (KindPlain only).
	Data []byte

	// Supervalue state (KindSuper only).
	Attrs   [NumAttrs]uint64
	LowKey  []byte // inclusive lower bound (DBT fence); nil = unbounded
	HighKey []byte // exclusive upper bound (DBT fence); nil = unbounded
	Cells   []Cell // sorted by Key
}

// NewSuper returns an empty supervalue.
func NewSuper() *Value { return &Value{Kind: KindSuper} }

// NewPlain returns a plain value holding data (not copied).
func NewPlain(data []byte) *Value { return &Value{Kind: KindPlain, Data: data} }

// Clone returns a deep copy of v, sharing nothing with it: the private
// copy a caller needs before editing a value it received (see
// "Immutability" in the package comment), or before keeping one that
// may lie in a larger buffer it must not pin, such as a reply frame. The
// copy is compact: its cell headers take one allocation and all its
// bytes another. Op.Apply does not use it for delta operations; OpPut
// does, so the stored version never aliases the caller's value.
func (v *Value) Clone() *Value {
	if v == nil {
		return nil
	}
	n := len(v.Data) + len(v.LowKey) + len(v.HighKey)
	for _, c := range v.Cells {
		n += len(c.Key) + len(c.Value)
	}
	buf := make([]byte, 0, n)
	own := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		buf = append(buf, b...)
		return buf[len(buf)-len(b) : len(buf) : len(buf)]
	}
	out := &Value{Kind: v.Kind, Attrs: v.Attrs, Data: own(v.Data), LowKey: own(v.LowKey), HighKey: own(v.HighKey)}
	if v.Cells != nil {
		out.Cells = make([]Cell, len(v.Cells))
		for i, c := range v.Cells {
			out.Cells[i] = Cell{Key: own(c.Key), Value: own(c.Value)}
		}
	}
	return out
}

// Equal reports deep equality of two values.
func (v *Value) Equal(o *Value) bool {
	if v == nil || o == nil {
		return v == o
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindPlain:
		return bytes.Equal(v.Data, o.Data)
	case KindSuper:
		if v.Attrs != o.Attrs || !bytes.Equal(v.LowKey, o.LowKey) || !bytes.Equal(v.HighKey, o.HighKey) {
			return false
		}
		if len(v.Cells) != len(o.Cells) {
			return false
		}
		for i := range v.Cells {
			if !bytes.Equal(v.Cells[i].Key, o.Cells[i].Key) || !bytes.Equal(v.Cells[i].Value, o.Cells[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

// EncodedSize returns an upper bound on the wire size of v, used to
// size buffers and to account node sizes in the DBT.
func (v *Value) EncodedSize() int {
	if v == nil {
		return 1
	}
	n := 1 + len(v.Data) + 8*NumAttrs + len(v.LowKey) + len(v.HighKey) + 24
	for _, c := range v.Cells {
		n += len(c.Key) + len(c.Value) + 8
	}
	return n
}

// Errors shared by the kv client and server. A handler's error reaches
// the client as one error reply, classified by the sentinel it wraps
// (see wireErrors).
var (
	// ErrConflict reports a write-write conflict or lock conflict under
	// snapshot isolation; the transaction was aborted and may be
	// retried by the caller.
	ErrConflict = errors.New("kv: transaction conflict")
	// ErrAborted reports that the transaction was already aborted.
	ErrAborted = errors.New("kv: transaction aborted")
	// ErrNotFound reports a read of an object with no visible version.
	ErrNotFound = errors.New("kv: object not found")
	// ErrBadRequest reports a malformed request, or one whose ops cannot
	// apply (a ListAdd on a plain value); retrying it cannot help.
	ErrBadRequest = errors.New("kv: bad request")
	// ErrUncertain reports that a commit was sent but its acknowledgment
	// was lost (the connection died mid-call). The transaction may or
	// may not have committed; callers must reconcile by reading before
	// retrying non-idempotent work.
	ErrUncertain = errors.New("kv: commit outcome uncertain")
	// ErrDiverged reports that two replicas of one group hold
	// irreconcilable streams — a backup whose head is past its primary's
	// (it applied records the primary never streamed), or whose record
	// below its head is not the primary's, a decision for a prepare the
	// replica never staged. Record replay cannot repair divergence: the
	// primary pushes the replica a snapshot that replaces its history.
	ErrDiverged = errors.New("kv: replicas diverged")
	// ErrWrongEpoch reports that a request carried a stale (or unknown)
	// replication-group epoch, or reached a member that may not serve it
	// (a backup, or a primary whose lease expired). The rejection is a
	// guarantee: the operation was NOT executed, so retrying it — after
	// updating the group view from the carried epoch and membership — is
	// always safe, for idempotent and non-idempotent requests alike.
	ErrWrongEpoch = errors.New("kv: wrong epoch")
	// ErrCompare reports that a compare op of the transaction failed at
	// commit (see "Compare ops"), so the transaction had no effect. Its
	// typed form, CompareError, names the op's kind and the object.
	ErrCompare = errors.New("kv: compare failed")
	// ErrWrongSlot reports that a request reached a group that does not
	// own the OID's slot under its directory: the client was configured
	// with another cluster's layout. Like ErrWrongEpoch, the rejection
	// guarantees the operation was NOT executed; the typed form
	// (WrongSlotError) carries the rejecting member's directory version
	// and the slot's owning group.
	ErrWrongSlot = errors.New("kv: wrong slot")
	// ErrStreamGap rejects a mirror batch that does not start at the
	// backup's stream head; nothing was applied. Its typed form,
	// StreamGapError, carries the head, so the primary resends from
	// there.
	ErrStreamGap = errors.New("kv: mirror batch not at the stream head")
)

// Wire error codes: the class of an error reply (rpc.AppError.Code).
// Code 0 means unclassified; never assign it. Values are wire protocol:
// append, never renumber; 10 and 50 are retired.
const (
	CodeConflict   uint64 = 1
	CodeAborted    uint64 = 2
	CodeNotFound   uint64 = 3
	CodeBadRequest uint64 = 4
	CodeUncertain  uint64 = 5
	CodeDiverged   uint64 = 6
	CodeWrongEpoch uint64 = 7
	CodeWrongSlot  uint64 = 8
	CodeCompare    uint64 = 9
	CodeStreamGap  uint64 = 11
)

// wireErrors pairs each wire code with its sentinel, and the four
// rejections whose payload a client or a primary acts on with their
// typed form. A
// server's error coder (WireErrorCode) takes the first row whose sentinel
// the error wraps, and the client's DecodeError the row of the code
// that came back. ErrUncertain leads: an uncertain commit wraps the
// batch error that made it so, whose own sentinel may promise the
// operation was NOT executed, the opposite of what an uncertain outcome
// means; its reply carries no typed form, so a rejection its text quotes
// redirects nobody.
var wireErrors = [...]wireError{
	{CodeUncertain, ErrUncertain, nil},
	{CodeCompare, ErrCompare, typed[CompareError]},
	{CodeConflict, ErrConflict, nil},
	{CodeAborted, ErrAborted, nil},
	{CodeNotFound, ErrNotFound, nil},
	{CodeWrongEpoch, ErrWrongEpoch, typed[WrongEpochError]},
	{CodeWrongSlot, ErrWrongSlot, typed[WrongSlotError]},
	{CodeStreamGap, ErrStreamGap, typed[StreamGapError]},
	{CodeDiverged, ErrDiverged, nil},
	{CodeBadRequest, ErrBadRequest, nil},
}

type wireError struct {
	code  uint64
	err   error
	typed func(error) typedError // the typed form err wraps, else a zero one
}

// typedError is a typed rejection: an error that lists its fields once,
// so an error reply can carry it whole.
type typedError interface {
	error
	wire(*wire.Codec)
}

// typed is a row's typed form: the *E that err wraps, or a new one for a
// reply to decode into.
func typed[E any, P interface {
	*E
	typedError
}](err error) typedError {
	var e P
	if !errors.As(err, &e) {
		e = new(E)
	}
	return e
}

// errorRow returns the row of wireErrors whose sentinel err wraps, or nil.
func errorRow(err error) *wireError {
	for i := range wireErrors {
		if errors.Is(err, wireErrors[i].err) {
			return &wireErrors[i]
		}
	}
	return nil
}

// codeRow returns the row of wireErrors of the given code, or nil.
func codeRow(code uint64) *wireError {
	for i := range wireErrors {
		if wireErrors[i].code == code {
			return &wireErrors[i]
		}
	}
	return nil
}

// errorDetail is what an error reply carries after its code
// (rpc.AppError.Detail): the server's clock — a failed commit may still
// have installed state at it, and a client whose next snapshot lands
// below that state would miss it — then, if the code has one, the typed
// rejection.
type errorDetail struct {
	Clock Timestamp
	Err   typedError
}

func (d *errorDetail) wire(c *wire.Codec) {
	wire.U64(c, &d.Clock)
	if d.Err != nil {
		d.Err.wire(c)
	}
}

// decodeDetail reads the detail of an error reply whose code's row is
// row (nil for a code of no row).
func decodeDetail(row *wireError, p []byte) (*errorDetail, error) {
	d := &errorDetail{}
	if row != nil && row.typed != nil {
		d.Err = row.typed(nil)
	}
	return d, wire.DecodeFrom(wire.NewReader(p), d, ErrBadRequest, (*errorDetail).wire)
}

// WireErrorCode is a kv server's error coder (rpc.Server.SetErrorCoder):
// it returns err's wire code, 0 if err wraps no kv sentinel, and appends
// the reply's detail, the clock now and err's typed form.
func WireErrorCode(err error, now Timestamp, detail *wire.Buffer) uint64 {
	d, code := errorDetail{Clock: now}, uint64(0)
	if row := errorRow(err); row != nil {
		code = row.code
		if row.typed != nil {
			d.Err = row.typed(err)
		}
	}
	wire.EncodeTo(detail, &d, (*errorDetail).wire)
	return code
}

// DecodeError turns an error reply back into the error it reports, and
// returns the server clock the reply carried. The error keeps the
// server's text and wraps the code's typed form, or else (the detail
// did not decode) its sentinel, so callers match it with errors.Is and
// errors.As; a reply of no kv code comes back as it is. So does a
// transport error, which is no reply: with clock 0.
func DecodeError(err error) (error, Timestamp) {
	var app *rpc.AppError
	if !errors.As(err, &app) {
		return err, 0
	}
	row := codeRow(app.Code)
	d, derr := decodeDetail(row, app.Detail)
	switch {
	case row == nil:
		return err, d.Clock
	case derr != nil || d.Err == nil:
		return &replyError{msg: app.Msg, class: row.err}, d.Clock
	}
	return &replyError{msg: app.Msg, class: d.Err}, d.Clock
}

// replyError is a decoded error reply: the server's text, wrapping the
// class its code names.
type replyError struct {
	msg   string
	class error
}

func (e *replyError) Error() string { return e.msg }
func (e *replyError) Unwrap() error { return e.class }

// WrongEpochError is the typed form of ErrWrongEpoch: the rejecting
// member's current epoch and membership (primary first), so a stale
// client can adopt the new configuration and redirect, and a deposed
// primary can learn it was superseded.
type WrongEpochError struct {
	Epoch   uint64
	Members []string // replica addresses, acting primary first
}

func (e *WrongEpochError) Error() string {
	return fmt.Sprintf("%s: epoch=%d members=%s", ErrWrongEpoch.Error(), e.Epoch, strings.Join(e.Members, ","))
}

func (e *WrongEpochError) Unwrap() error { return ErrWrongEpoch }

func (e *WrongEpochError) wire(c *wire.Codec) {
	c.Uvarint(&e.Epoch)
	wireMembers(c, &e.Members)
}

// WrongSlotError is the typed form of ErrWrongSlot: the rejecting
// member's directory version, the route (directory index) the request's
// OID maps to, the group that owns it under that version, and that
// group's replica addresses (primary first), so the error names where
// the request belonged.
type WrongSlotError struct {
	Version uint64   // rejecting member's directory version
	Route   uint32   // directory route index of the OID's slot
	Group   uint32   // owning group index under Version
	Members []string // owning group's replica addresses, primary first
}

func (e *WrongSlotError) Error() string {
	return fmt.Sprintf("%s: dir=%d route=%d group=%d members=%s",
		ErrWrongSlot.Error(), e.Version, e.Route, e.Group, strings.Join(e.Members, ","))
}

func (e *WrongSlotError) Unwrap() error { return ErrWrongSlot }

func (e *WrongSlotError) wire(c *wire.Codec) {
	c.Uvarint(&e.Version)
	c.Uint32(&e.Route)
	c.Uint32(&e.Group)
	wireMembers(c, &e.Members)
}

// StreamGapError is the typed form of ErrStreamGap: the backup's stream
// head, the epoch its stream had installed there, and a checksum of its
// record below the head (0 when that record is not retained), which the
// primary checks against the record it holds there before resending.
type StreamGapError struct {
	Head        uint64
	StreamEpoch uint64
	Last        uint32
}

func (e *StreamGapError) Error() string {
	return fmt.Sprintf("%s: head=%d stream_epoch=%d", ErrStreamGap.Error(), e.Head, e.StreamEpoch)
}

func (e *StreamGapError) Unwrap() error { return ErrStreamGap }

func (e *StreamGapError) wire(c *wire.Codec) {
	c.Uvarint(&e.Head)
	c.Uvarint(&e.StreamEpoch)
	c.Uint32(&e.Last)
}

// CompareError is the typed form of ErrCompare: the kind of the compare
// op that failed and the object it checked.
type CompareError struct {
	Op  OpKind
	OID OID
}

func (e *CompareError) Error() string {
	return fmt.Sprintf("%s: op=%d oid=%d", ErrCompare.Error(), e.Op, uint64(e.OID))
}

func (e *CompareError) Unwrap() error { return ErrCompare }

func (e *CompareError) wire(c *wire.Codec) {
	k := byte(e.Op)
	c.Byte(&k)
	wire.U64(c, &e.OID)
	if c.Decoding() {
		if e.Op = OpKind(k); !e.Op.IsCompare() {
			c.Fail(fmt.Errorf("%w: compare of op kind %d", ErrBadRequest, k))
		}
	}
}

// OpKind enumerates write operations staged by a transaction.
type OpKind uint8

const (
	// OpPut overwrites the object with a full value.
	OpPut OpKind = iota
	// OpDelete removes the object (a tombstone version).
	OpDelete
	// OpListAdd inserts or replaces one cell in a supervalue.
	OpListAdd
	// OpListDelRange deletes cells with keys in [From, To).
	OpListDelRange
	// OpAttrSet sets one 64-bit attribute.
	OpAttrSet
	// OpSetBounds replaces the supervalue's fence keys.
	OpSetBounds

	// The compare ops (see "Compare ops" in the package comment) check
	// the object as the transaction's earlier ops on it leave it. First
	// the constraint compares.

	// OpCmpPresent requires a cell with key From.
	OpCmpPresent
	// OpCmpAbsent requires no cell with a key in [From, To).
	OpCmpAbsent

	// Then the route compares.

	// OpCmpFences requires the fence interval to cover [From, To): the low
	// fence at or below From, and the high fence unbounded or at or above
	// To (a nil To is unbounded, and only an unbounded fence covers it).
	OpCmpFences
	// OpCmpAttr requires attribute Attr to equal Num.
	OpCmpAttr
	// OpCmpMaxCells requires at most Num cells. It also asks the commit
	// reply (FastCommitResp, PrepareResp) for the object's cell count
	// with the transaction's ops applied, so a writer that adds cells
	// without reading the object bounds it by a hard cap and learns from
	// the reply whether it grew the object past a softer limit of its
	// own (a tree's split threshold).
	OpCmpMaxCells
)

// IsCompare reports whether k is a compare op.
func (k OpKind) IsCompare() bool { return k >= OpCmpPresent && k <= OpCmpMaxCells }

// IsRoute reports whether k is a route compare.
func (k OpKind) IsRoute() bool { return k >= OpCmpFences && k <= OpCmpMaxCells }

// Op is one staged write operation on an object.
type Op struct {
	Kind OpKind
	OID  OID

	Value *Value // OpPut
	Cell  Cell   // OpListAdd
	From  []byte // OpListDelRange and the key compares (inclusive)
	To    []byte // OpListDelRange, OpCmpAbsent, OpCmpFences (exclusive)
	Attr  uint8  // OpAttrSet, OpCmpAttr
	Num   uint64 // OpAttrSet and OpCmpAttr value, OpCmpMaxCells bound
	Low   []byte // OpSetBounds
	High  []byte // OpSetBounds
}

// Apply applies op to base and returns the resulting value. base may be
// nil (object absent); delta ops on an absent object create an empty
// supervalue first, so a blind ListAdd works without a prior read.
//
// Apply is the reference semantics of the ops: what a store's Layered
// versions, Overlay and the client's read-your-writes must each agree
// with. It never mutates base, and the result of a delta op shares
// base's fence keys and every cell the op did not touch: ListAdd and
// ListDelRange copy the Cells header array and edit the copy, AttrSet
// and SetBounds share the array whole. Both base and the result are
// immutable from here on. The op's own key, value and bounds are copied
// in, so the caller's buffers stay its own. A compare op returns base
// itself, or a *CompareError when base fails it.
func (op *Op) Apply(base *Value) (*Value, error) {
	switch op.Kind {
	case OpPut:
		return op.Value.Clone(), nil
	case OpDelete:
		return nil, nil
	}
	if op.Kind.IsCompare() {
		return base, op.compare(base)
	}
	// Delta operations need a supervalue to operate on.
	v := &Value{Kind: KindSuper}
	switch {
	case base == nil:
	case base.Kind != KindSuper:
		return nil, fmt.Errorf("%w: delta op on plain value", ErrBadRequest)
	default:
		*v = *base
	}
	switch op.Kind {
	case OpListAdd:
		v.Cells = append(make([]Cell, 0, len(v.Cells)+1), v.Cells...)
		v.ListAdd(op.Cell.Key, op.Cell.Value)
	case OpListDelRange:
		v.Cells = slices.Clone(v.Cells)
		v.ListDelRange(op.From, op.To)
	case OpAttrSet:
		if op.Attr >= NumAttrs {
			return nil, fmt.Errorf("%w: attr index %d", ErrBadRequest, op.Attr)
		}
		v.Attrs[op.Attr] = op.Num
	case OpSetBounds:
		v.LowKey = append([]byte(nil), op.Low...)
		v.HighKey = append([]byte(nil), op.High...)
	default:
		return nil, fmt.Errorf("%w: op kind %d", ErrBadRequest, op.Kind)
	}
	return v, nil
}

// compare evaluates compare op op on base, the object as the ops before
// it leave it (nil = absent, which has no cells, no fences and no
// attributes). A plain value fails every compare.
func (op *Op) compare(base *Value) error {
	if op.Kind == OpCmpAttr && op.Attr >= NumAttrs {
		return fmt.Errorf("%w: attr index %d", ErrBadRequest, op.Attr)
	}
	super := base != nil && base.Kind == KindSuper
	var cells []Cell
	if super {
		cells = base.Cells
	}
	var ok bool
	switch op.Kind {
	case OpCmpPresent:
		_, ok = cellIndex(cells, op.From)
	case OpCmpAbsent:
		lo, hi := cellRange(cells, op.From, op.To)
		ok = (base == nil || super) && lo >= hi
	case OpCmpFences:
		ok = super && (base.LowKey == nil || bytes.Compare(base.LowKey, op.From) <= 0) &&
			(base.HighKey == nil || op.To != nil && bytes.Compare(op.To, base.HighKey) <= 0)
	case OpCmpAttr:
		ok = super && base.Attrs[op.Attr] == op.Num
	case OpCmpMaxCells:
		ok = (base == nil || super) && uint64(len(cells)) <= op.Num
	}
	if !ok {
		return &CompareError{Op: op.Kind, OID: op.OID}
	}
	return nil
}

// Overlay returns base as it looks under ops applied in order: what a
// transaction reads of an object it has staged writes on. The result
// equals folding Op.Apply over ops, at a different price: every Apply
// step copies the cells' header array, while Overlay copies it once,
// with room for every op, and applies the ops to that private copy in
// place — a read under N staged ops costs the window plus N, not N
// copies of a growing array. The cells' bytes and the fence keys are
// shared with base and with the ops, all immutable, and so is the result
// once it is returned. base may be nil (object absent) and is not modified. Compare
// ops are skipped: they are checks for the commit, not writes.
func Overlay(base *Value, ops []*Op) (*Value, error) {
	v := base
	private := false // v's header array is this call's own copy, free to edit
	for _, op := range ops {
		switch op.Kind {
		case OpCmpPresent, OpCmpAbsent, OpCmpFences, OpCmpAttr, OpCmpMaxCells:
		case OpPut:
			v, private = op.Value, false
		case OpDelete:
			v, private = nil, false
		case OpListAdd, OpListDelRange:
			if v != nil && v.Kind != KindSuper {
				return nil, fmt.Errorf("%w: delta op on plain value", ErrBadRequest)
			}
			if !private {
				own := &Value{Kind: KindSuper}
				if v != nil {
					*own = *v
				}
				own.Cells = append(make([]Cell, 0, len(own.Cells)+len(ops)), own.Cells...)
				v, private = own, true
			}
			if op.Kind == OpListAdd {
				v.setCell(op.Cell)
			} else {
				v.ListDelRange(op.From, op.To)
			}
		default:
			// AttrSet, SetBounds: Apply copies the header and shares the
			// array, so the array stays as private as it was.
			var err error
			if v, err = op.Apply(v); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// CommutativeTouch classifies op for conflict detection. Commutative
// operations (a one-cell insert/replace, a one-cell delete, an
// attribute write) return the conflict key they touch: two concurrent
// transactions whose delta operations touch disjoint keys of the same
// supervalue commute and may both commit — this is what lets many
// clients insert into the same DBT leaf without aborting each other.
// Structural operations (full Put, Delete, SetBounds, multi-key
// ListDelRange — the ops a node split performs) return ok=false and
// conflict with every concurrent write to the object. Compare ops are
// neither: they touch nothing, and the server leaves them out of the
// classification.
func (op *Op) CommutativeTouch() ([]byte, bool) {
	switch op.Kind {
	case OpListAdd:
		return op.Cell.Key, true
	case OpAttrSet:
		return attrTouchKey(op.Attr), true
	case OpListDelRange:
		// Single-key form: [k, k+"\x00") deletes exactly k.
		if op.From != nil && op.To != nil &&
			len(op.To) == len(op.From)+1 &&
			op.To[len(op.From)] == 0x00 &&
			bytes.Equal(op.To[:len(op.From)], op.From) {
			return op.From, true
		}
	}
	return nil, false
}

// attrTouchKey is the synthetic conflict key for attribute slot i. A
// real cell key could collide with it, costing only a spurious
// conflict, never a missed one.
func attrTouchKey(i uint8) []byte { return []byte{0xff, 0xfe, 'A', i} }

// --- wire encoding ---

// tombstone is the kind byte of a nil value.
const tombstone = 0xff

// WireValue codes *v through c: its kind byte, then the kind's payload;
// a nil value (a tombstone) is the lone byte 0xff. Byte slices decode
// copied out of the frame, or in place under wire.DecodeInPlace.
func WireValue(v **Value, c *wire.Codec) {
	k := byte(tombstone)
	if *v != nil {
		k = byte((*v).Kind)
	}
	c.Byte(&k)
	if c.Decoding() {
		*v = nil
		if k != tombstone && c.Err() == nil {
			*v = &Value{Kind: Kind(k)}
		}
	}
	if *v != nil {
		(*v).wire(c)
	}
}

func (v *Value) wire(c *wire.Codec) {
	switch v.Kind {
	case KindPlain:
		c.Bytes(&v.Data)
	case KindSuper:
		for i := range v.Attrs {
			c.Uvarint(&v.Attrs[i])
		}
		optionalPair(c, &v.LowKey, &v.HighKey)
		wire.Slice(c, &v.Cells, minCellSize)
		for i := range v.Cells {
			v.Cells[i].wire(c)
		}
	default:
		c.Fail(fmt.Errorf("%w: value kind %d", ErrBadRequest, v.Kind))
	}
}

func (cell *Cell) wire(c *wire.Codec) {
	c.Bytes(&cell.Key)
	c.Bytes(&cell.Value)
}

// optionalPair codes two byte strings either of which may be absent
// (nil, as opposed to empty): both strings, then a presence flag each.
func optionalPair(c *wire.Codec, a, b *[]byte) {
	c.Bytes(a)
	c.Bytes(b)
	hasA, hasB := *a != nil, *b != nil
	c.Bool(&hasA)
	c.Bool(&hasB)
	if !hasA && c.Decoding() {
		*a = nil
	}
	if !hasB && c.Decoding() {
		*b = nil
	}
}

// EncodeValue appends v to b. A nil value encodes as a tombstone.
func EncodeValue(b *wire.Buffer, v *Value) { wire.EncodeTo(b, &v, WireValue) }

// DecodeValue reads a value encoded by EncodeValue.
func DecodeValue(r *wire.Reader) (v *Value, err error) {
	err = wire.DecodeFrom(r, &v, ErrBadRequest, WireValue)
	return v, err
}

func (op *Op) wire(c *wire.Codec) {
	k := byte(op.Kind)
	c.Byte(&k)
	if c.Decoding() {
		op.Kind = OpKind(k)
	}
	wire.U64(c, &op.OID)
	switch op.Kind {
	case OpPut:
		WireValue(&op.Value, c)
	case OpDelete:
	case OpListAdd:
		op.Cell.wire(c)
	case OpListDelRange:
		optionalPair(c, &op.From, &op.To)
	case OpAttrSet:
		c.Byte(&op.Attr)
		c.Uvarint(&op.Num)
	case OpSetBounds:
		optionalPair(c, &op.Low, &op.High)
	case OpCmpPresent:
		c.Bytes(&op.From)
	case OpCmpAbsent, OpCmpFences:
		optionalPair(c, &op.From, &op.To)
	case OpCmpAttr:
		c.Byte(&op.Attr)
		c.Uvarint(&op.Num)
	case OpCmpMaxCells:
		c.Uvarint(&op.Num)
	default:
		c.Fail(fmt.Errorf("%w: op kind %d", ErrBadRequest, op.Kind))
	}
}

// WireOps codes a list of ops through c.
func WireOps(ops *[]*Op, c *wire.Codec) {
	wire.Slice(c, ops, minOpSize)
	for i := range *ops {
		if c.Decoding() {
			(*ops)[i] = new(Op)
		}
		(*ops)[i].wire(c)
	}
}

// EncodeOp appends op to b.
func EncodeOp(b *wire.Buffer, op *Op) { wire.EncodeTo(b, op, (*Op).wire) }

// DecodeOp reads an op encoded by EncodeOp.
func DecodeOp(r *wire.Reader) (*Op, error) {
	op := new(Op)
	return op, wire.DecodeFrom(r, op, ErrBadRequest, (*Op).wire)
}

// Timestamp re-exports the clock timestamp for convenience of kv users.
type Timestamp = clock.Timestamp
