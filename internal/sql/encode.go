package sql

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"yesquel/internal/wire"
)

// Row and key encodings.
//
// Rows are stored as compact (non-ordered) tuples in table-tree leaf
// cells. Keys — primary keys and secondary-index entries — use an
// order-preserving encoding: for any two values a column can hold, the
// sign of bytes.Compare on their keys is the sign of Compare on the
// values (FuzzKeyOrder checks it). That is what lets the DBT serve ORDER
// BY and range predicates with a plain scan.

// Order-preserving key encoding, per value:
//
//	0x00                                              NULL
//	0x10 <8B sortable float> [0xFF <8B sortable int>] INTEGER and REAL
//	0x20 <escaped bytes> 0x00 0x01                    TEXT
//	0x30 <escaped bytes> 0x00 0x01                    BLOB
//
// Numbers are one key class, ordered by value as Compare orders them. A
// number's key holds the largest float64 at or below its value, so 3 and
// 3.0 share one key, and so do -0 and +0. An INTEGER that no float64
// holds exactly (beyond ±2^53) goes on with 0xFF and its own sortable
// bits: it sorts above the REAL its float part is, and among the
// INTEGERs that share that part by value. The marker is above every tag,
// so a number's key followed by another value's (an index entry's row
// key) sorts below every INTEGER key that extends it, and
// [k, KeySuccessor(k)) holds exactly the keys of values equal to k's.
// NaN is no value at all: Float makes it NULL, as SQLite does.

const (
	keyTagNull = 0x00
	keyTagNum  = 0x10
	keyTagText = 0x20
	keyTagBlob = 0x30

	keyIntTail = 0xff // before the sortable bits of an INTEGER no float64 holds
)

// sortableInt maps int64 to uint64 preserving order.
func sortableInt(i int64) uint64 { return uint64(i) ^ (1 << 63) }

// sortableFloat maps float64 bits to uint64 preserving order.
func sortableFloat(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative: flip everything
	}
	return u | (1 << 63) // positive: flip sign
}

// appendEscaped writes b with 0x00 escaped as 0x00 0xFF, then the
// terminator 0x00 0x01. The terminator sorts below any continuation
// (escaped zero is 0x00 0xFF > 0x00 0x01) and above nothing... i.e. a
// prefix sorts before its extensions, as required.
func appendEscaped(dst, b []byte) []byte {
	for _, c := range b {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xff)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// EncodeKeyValue appends the order-preserving encoding of v to dst.
func EncodeKeyValue(dst []byte, v Value) []byte {
	switch v.T {
	case TypeNull:
		return append(dst, keyTagNull)
	case TypeInt:
		f := float64(v.I)
		c := compareIntFloat(v.I, f)
		if c < 0 {
			f = math.Nextafter(f, math.Inf(-1)) // float64(v.I) rounded up
		}
		dst = append(dst, keyTagNum)
		dst = binary.BigEndian.AppendUint64(dst, sortableFloat(f))
		if c != 0 {
			dst = append(dst, keyIntTail)
			dst = binary.BigEndian.AppendUint64(dst, sortableInt(v.I))
		}
		return dst
	case TypeFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 is +0's key
		}
		dst = append(dst, keyTagNum)
		return binary.BigEndian.AppendUint64(dst, sortableFloat(f))
	case TypeText:
		dst = append(dst, keyTagText)
		return appendEscaped(dst, []byte(v.S))
	case TypeBlob:
		dst = append(dst, keyTagBlob)
		return appendEscaped(dst, v.B)
	}
	return dst
}

// EncodeKey encodes a multi-value key (e.g. index column + rowid).
func EncodeKey(vals ...Value) []byte {
	var out []byte
	for _, v := range vals {
		out = EncodeKeyValue(out, v)
	}
	return out
}

// KeySuccessor returns the end of the keys equal to k, the key of one
// value or of several: [k, KeySuccessor(k)) holds k and every key that is
// k followed by the keys of more values (an index value's entries, each
// ending in its row key), which is what an equality on k's values reads.
// Not every extension of k is in it: an INTEGER's key that goes on past
// its float part (keyIntTail) is a greater value's.
func KeySuccessor(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	out[len(k)] = 0xff
	return out
}

// EncodeRow encodes a row (all column values, in schema order) for
// storage in a table-tree leaf cell.
func EncodeRow(vals []Value) []byte {
	b := wire.NewBuffer(16 * len(vals))
	b.PutUvarint(uint64(len(vals)))
	for _, v := range vals {
		b.PutByte(byte(v.T))
		switch v.T {
		case TypeNull:
		case TypeInt:
			b.PutVarint(v.I)
		case TypeFloat:
			b.PutFloat64(v.F)
		case TypeText:
			b.PutString(v.S)
		case TypeBlob:
			b.PutBytes(v.B)
		}
	}
	return b.Bytes()
}

// DecodeRow decodes a row encoded by EncodeRow, into an allocation of
// its own. The row shares no memory with p: its TEXT and BLOB values are
// copies.
func DecodeRow(p []byte) ([]Value, error) {
	s := rowSlab{rows: 1}
	return s.decode(p)
}

// rowSlab decodes rows into shared backing arrays instead of one
// allocation per row. The first array holds rows rows of the width being
// decoded (a scan that knows its row limit makes that the limit), each
// later one twice as many as the one before, up to maxSlabRows. A decoded
// row takes its place in the array only when kept: the next decode
// overwrites a row that was not, so the rows a scan's filter rejects take
// no room. A kept row is never written again.
//
// Values are copied out of the encoding, as DecodeRow's are, unless
// inFrame is set: then each TEXT value is a string over the encoding's
// bytes (frameString) and each BLOB a slice of them, capacity-clipped, so
// a row costs no bytes of its own. Only an encoding that lies in a read
// reply frame may be decoded so: rpc.Client.Call hands every frame to its
// caller fresh, and nothing writes it again (a BLOB's owner may write its
// own bytes, which no other value shares). A scan sets it while its
// transaction has no staged writes, whose cells may come from the staged
// ops themselves.
type rowSlab struct {
	free    []Value // the current array's unused tail
	rows    int     // rows the next array holds; <= 0 means firstSlabRows
	inFrame bool    // TEXT and BLOB values alias the encoding
}

const (
	firstSlabRows = 8
	maxSlabRows   = 256
)

func (s *rowSlab) decode(p []byte) ([]Value, error) {
	r := wire.NewReader(p)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) { // every value takes at least its tag byte
		return nil, fmt.Errorf("sql: a row of %d values in %d bytes", n, r.Remaining())
	}
	if len(s.free) < int(n) {
		rows := s.rows
		if rows <= 0 {
			rows = firstSlabRows
		}
		rows = min(rows, maxSlabRows)
		s.free = make([]Value, rows*int(n))
		s.rows = 2 * rows
	}
	row := s.free[:n:n]
	for i := range row {
		tag, err := r.Byte()
		if err != nil {
			return nil, err
		}
		switch Type(tag) {
		case TypeNull:
			row[i] = Null
		case TypeInt:
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			row[i] = Int(v)
		case TypeFloat:
			v, err := r.Float64()
			if err != nil {
				return nil, err
			}
			row[i] = Float(v)
		case TypeText:
			v, err := r.Bytes()
			if err != nil {
				return nil, err
			}
			if s.inFrame {
				row[i] = Text(frameString(v))
			} else {
				row[i] = Text(string(v))
			}
		case TypeBlob:
			v, err := r.Bytes()
			if err != nil {
				return nil, err
			}
			if !s.inFrame {
				v = bytes.Clone(v)
			}
			row[i] = Blob(v)
		default:
			return nil, fmt.Errorf("sql: bad row tag %d", tag)
		}
	}
	return row, nil
}

// keep gives row, the last row decode returned, its place for good.
func (s *rowSlab) keep(row []Value) { s.free = s.free[len(row):] }

// frameString returns b's bytes as a string without copying them. A Go
// string must never change, so b must lie in memory that nothing writes
// for as long as the string is reachable: a read reply frame, which the
// rpc client hands over fresh and never reuses, and of which the only
// bytes anyone may write are a BLOB value's own (see rowSlab). What a
// string made here pins is the frame it points into: at most the frames
// its statement read.
func frameString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
