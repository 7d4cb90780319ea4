// Package wire implements the low-level encoding used by Yesquel's RPC
// stack: length-prefixed frames on the network and a compact, allocation-
// conscious binary encoding for message payloads.
//
// The encoding is deliberately simple: unsigned varints for integers,
// length-prefixed byte strings, and fixed-width 64-bit values where the
// caller needs them. There is no reflection and no generated code: a
// message lists its fields once, in a method a Codec runs as encoder,
// decoder or sizer. Buffer and Reader are the primitives beneath the
// Codec; a few layouts are still laid out on them directly (RPC frames,
// SQL rows and catalog entries).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxFrameSize bounds a single frame. Frames carry one RPC request or
// response; DBT nodes are capped well below this, so any larger frame
// indicates corruption or a protocol error.
const MaxFrameSize = 64 << 20 // 64 MiB

// Frame errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrShortBuffer   = errors.New("wire: short buffer")
)

// WriteFrame writes one length-prefixed frame to w. It performs a single
// Write call so that concurrent writers serialized by a mutex cannot
// interleave partial frames.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed frame from r. It returns the
// payload in a freshly allocated slice owned by the caller.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Buffer accumulates an encoded message. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded contents. The slice aliases the Buffer's
// internal storage and is valid until the next Put call.
func (b *Buffer) Bytes() []byte { return b.b }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.b) }

// Reset truncates the buffer, retaining capacity.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// PutUvarint appends v as an unsigned varint.
func (b *Buffer) PutUvarint(v uint64) {
	b.b = binary.AppendUvarint(b.b, v)
}

// PutVarint appends v as a signed (zig-zag) varint.
func (b *Buffer) PutVarint(v int64) {
	b.b = binary.AppendVarint(b.b, v)
}

// PutUint64 appends v as a fixed-width big-endian 64-bit value.
func (b *Buffer) PutUint64(v uint64) {
	b.b = binary.BigEndian.AppendUint64(b.b, v)
}

// PutUint32 appends v as a fixed-width big-endian 32-bit value.
func (b *Buffer) PutUint32(v uint32) {
	b.b = binary.BigEndian.AppendUint32(b.b, v)
}

// PutByte appends a single byte.
func (b *Buffer) PutByte(v byte) { b.b = append(b.b, v) }

// PutBool appends a boolean as one byte.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.b = append(b.b, 1)
	} else {
		b.b = append(b.b, 0)
	}
}

// PutFloat64 appends v as its IEEE-754 bit pattern.
func (b *Buffer) PutFloat64(v float64) {
	b.PutUint64(math.Float64bits(v))
}

// PutBytes appends a length-prefixed byte string.
func (b *Buffer) PutBytes(v []byte) {
	b.PutUvarint(uint64(len(v)))
	b.b = append(b.b, v...)
}

// PutString appends a length-prefixed string.
func (b *Buffer) PutString(v string) {
	b.PutUvarint(uint64(len(v)))
	b.b = append(b.b, v...)
}

// Reader decodes a message produced by Buffer. Decoding methods return
// an error rather than panicking on truncated input, so a malicious or
// corrupted peer cannot crash the process.
type Reader struct {
	b   []byte
	off int
	bad error // what a decoder classes malformed input as (see Decode); nil for NewReader's
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// short reports a read past the end of the payload: ErrShortBuffer,
// wrapped in the Reader's bad-input error when it has one, so a payload
// cut short is refused like one that miscounts.
func (r *Reader) short(what string) error {
	if r.bad != nil {
		return fmt.Errorf("%w: %w: %s", r.bad, ErrShortBuffer, what)
	}
	return fmt.Errorf("%w: %s", ErrShortBuffer, what)
}

// Remaining reports the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.short("uvarint")
	}
	r.off += n
	return v, nil
}

// Varint decodes a signed (zig-zag) varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, r.short("varint")
	}
	r.off += n
	return v, nil
}

// Uint64 decodes a fixed-width big-endian 64-bit value.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, r.short("uint64")
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// Uint32 decodes a fixed-width big-endian 32-bit value.
func (r *Reader) Uint32() (uint32, error) {
	if r.Remaining() < 4 {
		return 0, r.short("uint32")
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

// Byte decodes a single byte.
func (r *Reader) Byte() (byte, error) {
	if r.Remaining() < 1 {
		return 0, r.short("byte")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// Bool decodes a boolean.
func (r *Reader) Bool() (bool, error) {
	v, err := r.Byte()
	return v != 0, err
}

// Float64 decodes an IEEE-754 64-bit float.
func (r *Reader) Float64() (float64, error) {
	v, err := r.Uint64()
	return math.Float64frombits(v), err
}

// Bytes decodes a length-prefixed byte string. The returned slice
// aliases the Reader's underlying buffer; callers that retain it past
// the life of the frame must copy.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(r.Remaining()) < n {
		return nil, r.short(fmt.Sprintf("bytes of length %d", n))
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

// BytesCopy decodes a length-prefixed byte string into fresh storage.
func (r *Reader) BytesCopy() ([]byte, error) {
	v, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// String decodes a length-prefixed string.
func (r *Reader) String() (string, error) {
	v, err := r.Bytes()
	if err != nil {
		return "", err
	}
	return string(v), nil
}
