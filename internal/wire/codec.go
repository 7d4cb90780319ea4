package wire

import (
	"fmt"
	"math/bits"
)

// Codec visits a message's fields in order, in one of three modes:
// encoding appends each field to a buffer, decoding reads each field
// from a payload into the same variable, and sizing (the zero Codec)
// only counts the bytes encoding would append. A message therefore
// describes its layout once, as a method that hands every field to the
// Codec, and that one description is its encoder, decoder and sizer.
// Decoding comes in two kinds, which differ only in Bytes: Decode copies
// byte strings out of the payload, DecodeInPlace leaves them there.
//
// Encoding and sizing only read the fields: the values a message holds
// are shared between goroutines (see kv's "Immutability"), so a field
// list writes a field only when Decoding says so.
//
// Decoding errors are sticky: the first one is kept, later fields are
// left as they are and counts come back 0, so a field list needs no
// error checks of its own.
//
// A Codec holds its buffer and payload by value, never a pointer to
// the caller's, so a Codec on the stack keeps everything it touches
// there too: run a field list through Encode, EncodeTo, Size, Decode,
// DecodeInPlace or DecodeFrom, called directly with a method expression such as
// (*Msg).wire, and the list costs no allocation of its own.
type Codec struct {
	mode mode
	b    Buffer // encoding: the bytes so far
	r    Reader // decoding: the payload, and how much of it is read
	n    int    // sizing: bytes counted so far
	bad  error  // decoding: what a count the payload cannot hold is reported as
	err  error  // decoding: the first error
}

type mode uint8

const (
	sizing mode = iota
	encoding
	decoding
	decodingInPlace // decoding, with Bytes aliasing the payload
)

// NewEncoder returns a Codec encoding into a buffer of the given
// initial capacity, for a caller that drains the bytes as it goes (see
// Buffer).
func NewEncoder(capacity int) Codec {
	return Codec{mode: encoding, b: Buffer{b: make([]byte, 0, capacity)}}
}

// Encode returns the encoding of m by fields: a sizing pass, then an
// encoding pass into a buffer of exactly that size, so the encoding
// costs one allocation.
func Encode[M any](m *M, fields func(*M, *Codec)) []byte {
	c := Codec{}
	fields(m, &c)
	c = Codec{mode: encoding, b: Buffer{b: make([]byte, 0, c.n)}}
	fields(m, &c)
	return c.b.b
}

// EncodeTo appends the encoding of m by fields to b.
func EncodeTo[M any](b *Buffer, m *M, fields func(*M, *Codec)) {
	c := Codec{mode: encoding, b: *b}
	fields(m, &c)
	*b = c.b
}

// Size returns the length of m's encoding by fields.
func Size[M any](m *M, fields func(*M, *Codec)) int {
	c := Codec{}
	fields(m, &c)
	return c.n
}

// Decode decodes a new M from p by fields. A count larger than the rest
// of the payload could hold is an error wrapping bad; so is whatever
// fields reports through Fail.
func Decode[M any](p []byte, bad error, fields func(*M, *Codec)) (*M, error) {
	m, c := new(M), Codec{mode: decoding, r: Reader{b: p}, bad: bad}
	if fields(m, &c); c.err != nil {
		return nil, c.err
	}
	return m, nil
}

// DecodeInPlace is Decode for a payload nobody will write to again, whose
// byte strings it decodes in place, aliasing p. A reply frame the rpc
// client hands its caller is such a payload. A request a server decodes
// is not: what it decodes outlives the request, in versions and the
// write-ahead log, and must not pin it.
func DecodeInPlace[M any](p []byte, bad error, fields func(*M, *Codec)) (*M, error) {
	m, c := new(M), Codec{mode: decodingInPlace, r: Reader{b: p}, bad: bad}
	if fields(m, &c); c.err != nil {
		return nil, c.err
	}
	return m, nil
}

// DecodeFrom decodes m from r by fields, leaving r after m's encoding.
func DecodeFrom[M any](r *Reader, m *M, bad error, fields func(*M, *Codec)) error {
	c := Codec{mode: decoding, r: *r, bad: bad}
	fields(m, &c)
	*r = c.r
	return c.err
}

// Buffer returns the buffer an encoding Codec appends to.
func (c *Codec) Buffer() *Buffer { return &c.b }

// Decoding reports whether c reads fields rather than writes them.
func (c *Codec) Decoding() bool { return c.mode >= decoding }

// Err returns the first decoding error.
func (c *Codec) Err() error { return c.err }

// Fail records err as the decoding error unless one is already kept.
// Message methods use it for what the layout alone cannot reject: an
// unknown kind, a list over its sanity limit.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Uint64 codes v as a fixed-width big-endian 64-bit value.
func (c *Codec) Uint64(v *uint64) {
	switch {
	case c.mode == encoding:
		c.b.PutUint64(*v)
	case c.mode == sizing:
		c.n += 8
	case c.err == nil:
		*v, c.err = c.r.Uint64()
	}
}

// Uint32 codes v as a fixed-width big-endian 32-bit value.
func (c *Codec) Uint32(v *uint32) {
	switch {
	case c.mode == encoding:
		c.b.PutUint32(*v)
	case c.mode == sizing:
		c.n += 4
	case c.err == nil:
		*v, c.err = c.r.Uint32()
	}
}

// Uvarint codes v as an unsigned varint.
func (c *Codec) Uvarint(v *uint64) {
	switch {
	case c.mode == encoding:
		c.b.PutUvarint(*v)
	case c.mode == sizing:
		c.n += uvarintLen(*v)
	case c.err == nil:
		*v, c.err = c.r.Uvarint()
	}
}

// Byte codes one byte.
func (c *Codec) Byte(v *byte) {
	switch {
	case c.mode == encoding:
		c.b.PutByte(*v)
	case c.mode == sizing:
		c.n++
	case c.err == nil:
		*v, c.err = c.r.Byte()
	}
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	switch {
	case c.mode == encoding:
		c.b.PutBool(*v)
	case c.mode == sizing:
		c.n++
	case c.err == nil:
		*v, c.err = c.r.Bool()
	}
}

// Bytes codes a length-prefixed byte string. Decoding copies it out of
// the payload, so the result never aliases the frame; under
// DecodeInPlace it is the payload's own bytes, its capacity clipped to
// its length so that an append cannot reach the bytes after it. Either
// way a decoded string is never nil, an empty one included.
func (c *Codec) Bytes(v *[]byte) {
	switch {
	case c.mode == encoding:
		c.b.PutBytes(*v)
	case c.mode == sizing:
		c.n += uvarintLen(uint64(len(*v))) + len(*v)
	case c.err != nil:
	case c.mode == decodingInPlace:
		*v, c.err = c.r.Bytes()
	default:
		*v, c.err = c.r.BytesCopy()
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(v *string) {
	switch {
	case c.mode == encoding:
		c.b.PutString(*v)
	case c.mode == sizing:
		c.n += uvarintLen(uint64(len(*v))) + len(*v)
	case c.err == nil:
		*v, c.err = c.r.String()
	}
}

// Count codes the length n of a list whose elements each take at least
// minSize bytes, and returns it (decoding: the length read). A decoded
// count the rest of the payload cannot hold fails before the caller
// allocates for it, so a hostile frame cannot make its receiver
// allocate more than a small multiple of the frame's own length.
func (c *Codec) Count(n, minSize int) int {
	u := uint64(n)
	c.Uvarint(&u)
	if !c.Decoding() {
		return n
	}
	if c.err == nil && u > uint64(c.r.Remaining()/minSize) {
		c.err = fmt.Errorf("%w: %d elements of at least %d bytes in the %d left", c.bad, u, minSize, c.r.Remaining())
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Strings codes a list of strings.
func (c *Codec) Strings(v *[]string) {
	Slice(c, v, MinLen)
	for i := range *v {
		c.String(&(*v)[i])
	}
}

// MinLen is the fewest bytes any field takes: a byte, a bool, a uvarint,
// an empty string or list.
const MinLen = 1

// Slice codes the length of *s as a Count and, decoding, makes *s that
// long (nil when empty); the caller then codes the elements in a loop.
func Slice[T any](c *Codec, s *[]T, minSize int) {
	n := c.Count(len(*s), minSize)
	if c.Decoding() {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}

// U64 codes a named 64-bit type (a timestamp, an object id) as Uint64.
func U64[T ~uint64](c *Codec, v *T) {
	u := uint64(*v)
	c.Uint64(&u)
	if c.Decoding() {
		*v = T(u)
	}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
