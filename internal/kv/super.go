package kv

import (
	"bytes"
	"sort"
)

// Supervalue cell-list manipulation. Cells are kept sorted by Key under
// bytes.Compare with unique keys; everything here maintains that
// invariant. ListAdd and ListDelRange mutate the receiver, so they are
// only for a value nobody else has seen (one being built, a Clone, or
// Overlay's private copy); Op.Apply goes through cellsWith and
// cellsWithout, which leave their input alone.

// cellIndex returns the position of key in the sorted cells and whether
// an exact match exists. Without a match, the position is the insertion
// point.
func cellIndex(cells []Cell, key []byte) (int, bool) {
	i := sort.Search(len(cells), func(i int) bool {
		return bytes.Compare(cells[i].Key, key) >= 0
	})
	if i < len(cells) && bytes.Equal(cells[i].Key, key) {
		return i, true
	}
	return i, false
}

func (v *Value) cellIndex(key []byte) (int, bool) { return cellIndex(v.Cells, key) }

// cellsWith returns cells with (key, value) inserted, or replacing the
// value of an equal key, in a fresh header array: the other cells' key
// and value bytes are shared with cells, which is not modified. key and
// value are copied.
func cellsWith(cells []Cell, key, value []byte) []Cell {
	value = append([]byte(nil), value...)
	i, found := cellIndex(cells, key)
	if found {
		out := make([]Cell, len(cells))
		copy(out, cells)
		out[i].Value = value
		return out
	}
	out := make([]Cell, len(cells)+1)
	copy(out, cells[:i])
	out[i] = Cell{Key: append([]byte(nil), key...), Value: value}
	copy(out[i+1:], cells[i:])
	return out
}

// cellsWithout returns cells minus those with keys in [from, to), in a
// fresh header array sharing the survivors' bytes; when the range holds
// no cell it returns cells itself. A nil from means unbounded below; a
// nil to means unbounded above.
func cellsWithout(cells []Cell, from, to []byte) []Cell {
	lo, hi := cellRange(cells, from, to)
	if lo >= hi {
		return cells
	}
	out := make([]Cell, len(cells)-(hi-lo))
	copy(out, cells[:lo])
	copy(out[lo:], cells[hi:])
	return out
}

// cellRange returns the positions [lo, hi) of the cells with keys in
// [from, to).
func cellRange(cells []Cell, from, to []byte) (lo, hi int) {
	if from != nil {
		lo, _ = cellIndex(cells, from)
	}
	hi = len(cells)
	if to != nil {
		hi, _ = cellIndex(cells, to)
	}
	return lo, hi
}

// gatherEvery is how many copy-on-write steps a cell list takes before
// its bytes are laid out together again.
const gatherEvery = 16

// gather counts one copy-on-write step on v, whose Cells header array
// must be fresh (nobody else holds it), and every gatherEvery steps
// copies all the cells' bytes into one allocation. Sharing makes a
// version cheap to produce but leaves a leaf's cells wherever each was
// allocated — for a table loaded in random order, all over the heap —
// and reading a window of them then costs a cache miss per cell (a
// 50-cell read measured 5.0 µs against 3.0 µs laid out together). One
// leaf-sized copy every gatherEvery commits bounds the stragglers at a
// quarter of a half-full leaf for a sixteenth of what copying per
// commit cost.
func (v *Value) gather() {
	if v.scattered++; v.scattered < gatherEvery {
		return
	}
	v.scattered = 0
	n := 0
	for _, c := range v.Cells {
		n += len(c.Key) + len(c.Value)
	}
	buf := make([]byte, 0, n)
	for i, c := range v.Cells {
		k := len(buf)
		buf = append(buf, c.Key...)
		m := len(buf)
		buf = append(buf, c.Value...)
		v.Cells[i] = Cell{Key: buf[k:m:m], Value: buf[m:len(buf):len(buf)]}
	}
}

// ListAdd inserts a cell, replacing the value if the key exists. key and
// value are copied.
func (v *Value) ListAdd(key, value []byte) {
	v.setCell(Cell{Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)})
}

// setCell inserts c, replacing the value if the key exists, in place;
// the value holds c's own bytes from here on.
func (v *Value) setCell(c Cell) {
	i, found := v.cellIndex(c.Key)
	if found {
		v.Cells[i].Value = c.Value
		return
	}
	v.Cells = append(v.Cells, Cell{})
	copy(v.Cells[i+1:], v.Cells[i:])
	v.Cells[i] = c
}

// ListDelRange removes all cells with keys in [from, to). A nil from
// means unbounded below; a nil to means unbounded above.
func (v *Value) ListDelRange(from, to []byte) {
	lo, hi := cellRange(v.Cells, from, to)
	if lo >= hi {
		return
	}
	v.Cells = append(v.Cells[:lo], v.Cells[hi:]...)
}

// ListGet returns the value of the cell with the given key.
func (v *Value) ListGet(key []byte) ([]byte, bool) {
	i, found := v.cellIndex(key)
	if !found {
		return nil, false
	}
	return v.Cells[i].Value, true
}

// NumCells returns the number of cells.
func (v *Value) NumCells() int { return len(v.Cells) }

// InBounds reports whether key falls within the supervalue's fence
// interval [LowKey, HighKey).
func (v *Value) InBounds(key []byte) bool {
	if v.LowKey != nil && bytes.Compare(key, v.LowKey) < 0 {
		return false
	}
	if v.HighKey != nil && bytes.Compare(key, v.HighKey) >= 0 {
		return false
	}
	return true
}
