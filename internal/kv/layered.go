package kv

import (
	"bytes"
	"fmt"
)

// Layered is an object's value as a store keeps it: an immutable base
// value plus the list ops (OpListAdd, OpListDelRange) committed on the
// object since that base, oldest first. A commit appends its list ops and
// copies nothing of the leaf; OpAttrSet and OpSetBounds make a new base
// that is a struct copy sharing the cells, and keep the ops; OpPut and
// OpDelete start a new base with no ops. Every gatherEvery ops the store
// rebases (Settle). What a Layered value stands for is always the fold
// of Op.Apply over its ops from its base, which Value materializes.
//
// Layered values are immutable, and successive values of one object
// share the ops' backing array by prefix: each holds the first n slots,
// and extending one writes slot n only if no other value has written it
// (opRun.written), so no slot is ever written twice and no value's ops
// change under a reader. Extending (With) writes that shared memory, so
// the values of one object are extended by one goroutine at a time (a
// store holds the object's shard lock); reading needs no lock. The ops
// are kept, not copied: their bytes must not change afterwards.
//
// Each value keeps its cell count and encoded size, updated as ops
// arrive, so neither needs a walk over the cells.
type Layered struct {
	base  *Value // nil: absent (never written, or a tombstone); then there are no ops
	run   *opRun
	n     int // this value's ops are run.ops[:n]
	cells int // cell count after the ops
	size  int // EncodedSize after the ops
}

// opRun is the backing array of a chain of Layered values' ops. ops has
// a fixed length; slots [0, written) hold ops, each written once.
type opRun struct {
	ops     []*Op
	written int
}

// NewLayered returns v as a base with no ops. v is kept, not copied: it
// must be immutable from here on. A nil v is absent.
func NewLayered(v *Value) Layered {
	l := Layered{base: v, size: v.EncodedSize()}
	if v != nil {
		l.cells = len(v.Cells)
	}
	return l
}

// Absent reports whether l is no value: never written, or a tombstone.
func (l Layered) Absent() bool { return l.base == nil }

// NumCells returns the number of cells of the value l stands for.
func (l Layered) NumCells() int { return l.cells }

// EncodedSize returns Value().EncodedSize() without materializing it.
func (l Layered) EncodedSize() int { return l.size }

// Pending returns how many ops l holds on its base.
func (l Layered) Pending() int { return l.n }

func (l Layered) ops() []*Op {
	if l.n == 0 {
		return nil
	}
	return l.run.ops[:l.n:l.n]
}

// Value returns the value l stands for (nil when absent): the base
// itself when no ops are pending, else a private copy of the base's
// header array with the ops applied in place, as Overlay does, which
// shares every cell's bytes. The result is immutable.
func (l Layered) Value() *Value {
	if l.n == 0 {
		return l.base
	}
	return l.ValueInto(&Value{Cells: make([]Cell, 0, len(l.base.Cells)+l.n)})
}

// ValueInto is Value for a caller that only reads the result before it
// materializes the next one, such as an encoder: the ops are applied in
// scratch, whose header array is reused. The result is scratch itself,
// or the base when no ops are pending.
func (l Layered) ValueInto(scratch *Value) *Value {
	if l.n == 0 {
		return l.base
	}
	cells := append(scratch.Cells[:0], l.base.Cells...)
	for _, op := range l.ops() {
		if op.Kind == OpListAdd {
			cells = setCell(cells, op.Cell)
		} else {
			cells = delRange(cells, op.From, op.To)
		}
	}
	*scratch = *l.base
	scratch.Cells = cells
	return scratch
}

// Settle returns l rebased once gatherEvery ops have piled up on its
// base, and l itself before that.
func (l Layered) Settle() Layered {
	if l.n < gatherEvery {
		return l
	}
	return l.Rebase()
}

// Rebase returns l as a new base with no ops: one private copy of the
// header array with the ops applied in place, then one copy of all the
// cells' bytes into a single allocation.
func (l Layered) Rebase() Layered {
	if l.n == 0 {
		return l
	}
	v := l.Value()
	v.gather()
	return Layered{base: v, cells: l.cells, size: l.size}
}

// With returns l with op applied: the next version, or, for a compare
// op, l itself or a *CompareError when l fails it. The result's value
// equals op.Apply(l.Value()), and fails where it fails. l is not
// changed; op is kept (see the type comment).
func (l Layered) With(op *Op) (Layered, error) {
	switch op.Kind {
	case OpPut:
		return NewLayered(op.Value.Clone()), nil
	case OpDelete:
		return NewLayered(nil), nil
	}
	if op.Kind.IsCompare() {
		return l, l.compare(op)
	}
	switch {
	case l.base == nil:
		l = NewLayered(&Value{Kind: KindSuper})
	case l.base.Kind != KindSuper:
		return l, fmt.Errorf("%w: delta op on plain value", ErrBadRequest)
	}
	switch op.Kind {
	case OpListAdd:
		if old, found := l.lookup(op.Cell.Key); found {
			l.size += len(op.Cell.Value) - len(old)
		} else {
			l.cells++
			l.size += cellSize(op.Cell)
		}
		l = l.push(op)
	case OpListDelRange:
		gone, _ := l.rangeCells(op.From, op.To)
		if len(gone) == 0 {
			return l, nil
		}
		l.cells -= len(gone)
		for _, c := range gone {
			l.size -= cellSize(c)
		}
		l = l.push(op)
	case OpAttrSet:
		if op.Attr >= NumAttrs {
			return l, fmt.Errorf("%w: attr index %d", ErrBadRequest, op.Attr)
		}
		b := *l.base
		b.Attrs[op.Attr] = op.Num
		l.base = &b
	case OpSetBounds:
		b := *l.base
		b.LowKey = append([]byte(nil), op.Low...)
		b.HighKey = append([]byte(nil), op.High...)
		l.size += len(b.LowKey) + len(b.HighKey) - len(l.base.LowKey) - len(l.base.HighKey)
		l.base = &b
	default:
		return l, fmt.Errorf("%w: op kind %d", ErrBadRequest, op.Kind)
	}
	return l, nil
}

// cellSize is what a cell adds to Value.EncodedSize.
func cellSize(c Cell) int { return len(c.Key) + len(c.Value) + 8 }

// push appends op to l's ops, in the shared array when l's next slot is
// free there, else in a fresh one.
func (l Layered) push(op *Op) Layered {
	if l.run == nil || l.run.written != l.n || l.n == len(l.run.ops) {
		run := &opRun{ops: make([]*Op, max(gatherEvery, 2*l.n)), written: l.n}
		copy(run.ops, l.ops())
		l.run = run
	}
	l.run.ops[l.n] = op
	l.run.written++
	l.n++
	return l
}

// compare evaluates compare op op on the value l stands for, as
// Op.compare does on a materialized value.
func (l Layered) compare(op *Op) error {
	if l.n == 0 {
		return op.compare(l.base)
	}
	// Pending ops imply a supervalue base, whose fences and attributes
	// are the value's; only the cells need the ops.
	var ok bool
	switch op.Kind {
	case OpCmpPresent:
		_, ok = l.lookup(op.From)
	case OpCmpAbsent:
		cells, _ := l.rangeCells(op.From, op.To)
		ok = len(cells) == 0
	case OpCmpMaxCells:
		ok = uint64(l.cells) <= op.Num
	default:
		return op.compare(l.base)
	}
	if !ok {
		return &CompareError{Op: op.Kind, OID: op.OID}
	}
	return nil
}

// lookup returns the value of the cell with key, as l stands for it.
func (l Layered) lookup(key []byte) ([]byte, bool) {
	ops := l.ops()
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i]; op.Kind {
		case OpListAdd:
			if bytes.Equal(op.Cell.Key, key) {
				return op.Cell.Value, true
			}
		case OpListDelRange:
			if inRange(key, op.From, op.To) {
				return nil, false
			}
		}
	}
	if l.base == nil {
		return nil, false
	}
	return l.base.ListGet(key)
}

// rangeCells returns the cells with keys in [lo, hi) of the value l
// stands for: a subslice of the base's cells when no pending op touches
// the range, else (copied) a private copy of just that range with the
// ops applied.
func (l Layered) rangeCells(lo, hi []byte) (cells []Cell, copied bool) {
	if l.base != nil {
		cells = l.base.Cells
	}
	a, b := cellRange(cells, lo, hi)
	b = max(a, b)
	cells = cells[a:b:b]
	if !l.touch(lo, hi) {
		return cells, false
	}
	adds := 0
	for _, op := range l.ops() {
		if op.Kind == OpListAdd && op.touches(lo, hi) {
			adds++
		}
	}
	cells = append(make([]Cell, 0, len(cells)+adds), cells...)
	for _, op := range l.ops() {
		switch {
		case !op.touches(lo, hi):
		case op.Kind == OpListAdd:
			cells = setCell(cells, op.Cell)
		default:
			cells = delRange(cells, op.From, op.To)
		}
	}
	return cells, true
}

// touch reports whether a pending op may change a cell with a key in
// [lo, hi).
func (l Layered) touch(lo, hi []byte) bool {
	for _, op := range l.ops() {
		if op.touches(lo, hi) {
			return true
		}
	}
	return false
}

// touches reports whether list op op may change a cell with a key in
// [lo, hi); it may answer true for a range the op leaves alone.
func (op *Op) touches(lo, hi []byte) bool {
	if op.Kind == OpListAdd {
		return inRange(op.Cell.Key, lo, hi)
	}
	// [From, To) meets [lo, hi) unless one ends at or before the other
	// starts.
	return (op.To == nil || lo == nil || bytes.Compare(lo, op.To) < 0) &&
		(hi == nil || op.From == nil || bytes.Compare(op.From, hi) < 0)
}

// inRange reports whether key lies in [from, to), nil bounds unbounded.
func inRange(key, from, to []byte) bool {
	return (from == nil || bytes.Compare(key, from) >= 0) && (to == nil || bytes.Compare(key, to) < 0)
}

// window returns the cells of the value l stands for that
// Value().WindowCells(from, to, max) returns, paying for the window and
// the pending ops, not the leaf: when no pending op touches the window
// it is a subslice of the base's cells, as for a value with no ops;
// otherwise (copied) it is a private copy of the window's cells alone.
func (l Layered) window(from, to []byte, max uint32) (window []Cell, copied bool) {
	if l.base == nil {
		return nil, false
	}
	if l.n == 0 {
		return l.base.WindowCells(from, to, max), false
	}
	base := l.base.Cells
	// The window starts at the base's floor cell for from, if the ops
	// leave it there: a floor the ops moved lies after it, unless they
	// deleted every cell from there up to from.
	s := floorIndex(base, from)
	var lo []byte
	if from != nil && s < len(base) && bytes.Compare(base[s].Key, from) <= 0 {
		lo = base[s].Key
	}
	// The base's own window is the answer when no pending op touches
	// the keys from its floor to where it ends: to, or, when max cut it
	// short, the first cell it left out.
	if from == nil || to == nil || bytes.Compare(from, to) < 0 {
		w := l.base.WindowCells(from, to, max)
		hi := to
		if e := s + len(w); max > 0 && len(w) == int(max) && e < len(base) {
			hi = base[e].Key
		}
		if !l.touch(lo, hi) {
			return w, false
		}
	}
	// A capped window ends, in the base, a few cells past max; deletes
	// can pull in cells beyond that, in which case the region widens.
	// A window from at or past to may start at or past to: its floor
	// must still be found.
	span := int(max) + l.n
	for {
		hi, bounded := to, false
		if from != nil && to != nil && bytes.Compare(from, to) >= 0 {
			hi = nil
		}
		if j := s + span; max > 0 && j < len(base) && (hi == nil || bytes.Compare(base[j].Key, hi) < 0) {
			hi, bounded = base[j].Key, true
		}
		cells, copied := l.rangeCells(lo, hi)
		start, found := cellIndex(cells, from)
		switch {
		case from == nil:
			start = 0
		case !found && start > 0:
			start-- // floor: include the predecessor cell
		case !found && lo != nil:
			lo = nil // the floor, if any, lies below the region
			continue
		}
		end := len(cells)
		if to != nil {
			end, _ = cellIndex(cells, to)
		}
		reachedTo := end < len(cells)
		if end < start {
			end = start
		}
		if max > 0 && end-start >= int(max) {
			end = start + int(max)
		} else if bounded && !reachedTo {
			span *= 2
			continue
		}
		return cells[start:end:end], copied
	}
}

// Part returns the value l stands for as a read of the window
// [floor(from), to) capped at max sees it — attributes, fences and the
// window's cells (see window) — and its total cell count. A plain value
// comes back whole; an absent one as nil. rebase reports that the
// window was a copy of gatherEvery cells or more: a store should then
// rebase l, if it is still the newest version, so that the reads after
// this one copy nothing. (A copy of a few cells costs less than the
// rebase would.)
func (l Layered) Part(from, to []byte, max uint32) (v *Value, total int, rebase bool) {
	if l.base == nil || l.base.Kind != KindSuper {
		return l.base, 0, false
	}
	cells, copied := l.window(from, to, max)
	return &Value{
		Kind:    KindSuper,
		Attrs:   l.base.Attrs,
		LowKey:  l.base.LowKey,
		HighKey: l.base.HighKey,
		Cells:   cells,
	}, l.cells, copied && len(cells) >= gatherEvery
}
