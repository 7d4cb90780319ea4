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
// order-preserving encoding so that bytes.Compare on encoded keys
// equals SQL ordering, which is what lets the DBT serve ORDER BY and
// range predicates with a plain scan.

// Order-preserving key encoding, per value:
//
//	0x00                         NULL
//	0x10 <8B sortable int>       INTEGER
//	0x11 <8B sortable float>     REAL  (same class as INTEGER: see below)
//	0x20 <escaped bytes> 0x00 0x01   TEXT
//	0x30 <escaped bytes> 0x00 0x01   BLOB
//
// INTEGER and REAL keys do not interleave: every REAL key sorts above
// every INTEGER key. A REAL column holds only REALs, but an INTEGER
// column also holds the REALs Coerce keeps (2.5, infinities). So an
// INTEGER PRIMARY KEY must hold integers (checkRow), and an index range
// on an INTEGER column that is bounded above also reads the index's REAL
// keys (scanTable). -0 and +0 are equal values and encode as one key.
// NaN is no value at all: Float makes it NULL, as SQLite does.

const (
	keyTagNull  = 0x00
	keyTagInt   = 0x10
	keyTagFloat = 0x11
	keyTagText  = 0x20
	keyTagBlob  = 0x30
)

// sortableInt maps int64 to uint64 preserving order.
func sortableInt(i int64) uint64 { return uint64(i) ^ (1 << 63) }

func unsortableInt(u uint64) int64 { return int64(u ^ (1 << 63)) }

// sortableFloat maps float64 bits to uint64 preserving order.
func sortableFloat(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative: flip everything
	}
	return u | (1 << 63) // positive: flip sign
}

func unsortableFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
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
		dst = append(dst, keyTagInt)
		return binary.BigEndian.AppendUint64(dst, sortableInt(v.I))
	case TypeFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 is +0's key
		}
		dst = append(dst, keyTagFloat)
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

// DecodeKeyValue decodes one value from a key encoding, returning the
// rest of the buffer.
func DecodeKeyValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("sql: empty key")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case keyTagNull:
		return Null, b, nil
	case keyTagInt:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("sql: short int key")
		}
		return Int(unsortableInt(binary.BigEndian.Uint64(b))), b[8:], nil
	case keyTagFloat:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("sql: short float key")
		}
		return Float(unsortableFloat(binary.BigEndian.Uint64(b))), b[8:], nil
	case keyTagText, keyTagBlob:
		var out []byte
		for i := 0; i < len(b); i++ {
			if b[i] != 0x00 {
				out = append(out, b[i])
				continue
			}
			if i+1 >= len(b) {
				return Value{}, nil, fmt.Errorf("sql: unterminated string key")
			}
			switch b[i+1] {
			case 0xff:
				out = append(out, 0x00)
				i++
			case 0x01:
				rest := b[i+2:]
				if tag == keyTagText {
					return Text(string(out)), rest, nil
				}
				return Blob(out), rest, nil
			default:
				return Value{}, nil, fmt.Errorf("sql: bad string key escape")
			}
		}
		return Value{}, nil, fmt.Errorf("sql: unterminated string key")
	default:
		return Value{}, nil, fmt.Errorf("sql: bad key tag %#x", tag)
	}
}

// DecodeKey decodes all values of a key.
func DecodeKey(b []byte) ([]Value, error) {
	var out []Value
	for len(b) > 0 {
		v, rest, err := DecodeKeyValue(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = rest
	}
	return out, nil
}

// KeySuccessor returns the smallest key strictly greater than every key
// with prefix k — used to turn an equality predicate into a range scan
// bound: [k, KeySuccessor(k)).
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
