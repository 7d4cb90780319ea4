package kv

import (
	"bytes"
	"sort"
)

// Supervalue cell-list manipulation. Cells are kept sorted by Key under
// bytes.Compare with unique keys; everything here maintains that
// invariant. ListAdd and ListDelRange mutate the receiver, so they are
// only for a value nobody else has seen (one being built, a Clone, or
// the private header copy Op.Apply, Overlay and a Layered rebase make).

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

// gatherEvery is how many list ops a stored version piles up on its
// base before the next commit rebases it (Layered.Settle): one private
// copy of the header array with the ops applied in place, then one copy
// of all the cells' bytes into a single allocation (gather). Between
// rebases a commit costs its op and nothing of the leaf, and the ops a
// read must overlay stay few; the rebase keeps a leaf's cells laid out
// together, since a leaf whose cells lie wherever each was allocated —
// for a table loaded in random order, all over the heap — costs a cache
// miss per cell to read (a 50-cell read measured 5.0 µs against 3.0 µs
// laid out together).
const gatherEvery = 16

// gather copies all of v's cells' key and value bytes into one
// allocation, each value right after its key. v's Cells header array
// must be its own (nobody else holds it); the fence keys stay shared.
func (v *Value) gather() {
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
func (v *Value) setCell(c Cell) { v.Cells = setCell(v.Cells, c) }

// setCell inserts c into the sorted cells, replacing the value of an
// equal key, in place, and returns the result.
func setCell(cells []Cell, c Cell) []Cell {
	i, found := cellIndex(cells, c.Key)
	if found {
		cells[i].Value = c.Value
		return cells
	}
	cells = append(cells, Cell{})
	copy(cells[i+1:], cells[i:])
	cells[i] = c
	return cells
}

// ListDelRange removes all cells with keys in [from, to). A nil from
// means unbounded below; a nil to means unbounded above.
func (v *Value) ListDelRange(from, to []byte) { v.Cells = delRange(v.Cells, from, to) }

// delRange removes the cells with keys in [from, to) from cells, in
// place, and returns the result.
func delRange(cells []Cell, from, to []byte) []Cell {
	lo, hi := cellRange(cells, from, to)
	if lo >= hi {
		return cells
	}
	return append(cells[:lo], cells[hi:]...)
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
