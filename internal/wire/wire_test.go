package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte{0xab}, 1<<16),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); err != ErrFrameTooLarge {
		t.Fatalf("WriteFrame oversize: got %v, want ErrFrameTooLarge", err)
	}
	// A corrupt header claiming an oversize frame must be rejected.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("ReadFrame oversize header: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Cut the frame short: reader must see an unexpected EOF, not hang
	// or return partial data.
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err != io.ErrUnexpectedEOF {
		t.Fatalf("ReadFrame truncated: got %v, want ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("ReadFrame empty: got %v, want EOF", err)
	}
}

func TestBufferReaderRoundTrip(t *testing.T) {
	b := NewBuffer(64)
	b.PutUvarint(0)
	b.PutUvarint(math.MaxUint64)
	b.PutVarint(-1)
	b.PutVarint(math.MinInt64)
	b.PutUint64(0xdeadbeefcafef00d)
	b.PutUint32(0x01020304)
	b.PutByte(0x7f)
	b.PutBool(true)
	b.PutBool(false)
	b.PutFloat64(-3.25)
	b.PutBytes([]byte{1, 2, 3})
	b.PutString("yesquel")
	b.PutBytes(nil)

	r := NewReader(b.Bytes())
	if v, err := r.Uvarint(); err != nil || v != 0 {
		t.Fatalf("Uvarint: %v %v", v, err)
	}
	if v, err := r.Uvarint(); err != nil || v != math.MaxUint64 {
		t.Fatalf("Uvarint max: %v %v", v, err)
	}
	if v, err := r.Varint(); err != nil || v != -1 {
		t.Fatalf("Varint: %v %v", v, err)
	}
	if v, err := r.Varint(); err != nil || v != math.MinInt64 {
		t.Fatalf("Varint min: %v %v", v, err)
	}
	if v, err := r.Uint64(); err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("Uint64: %x %v", v, err)
	}
	if v, err := r.Uint32(); err != nil || v != 0x01020304 {
		t.Fatalf("Uint32: %x %v", v, err)
	}
	if v, err := r.Byte(); err != nil || v != 0x7f {
		t.Fatalf("Byte: %x %v", v, err)
	}
	if v, err := r.Bool(); err != nil || !v {
		t.Fatalf("Bool true: %v %v", v, err)
	}
	if v, err := r.Bool(); err != nil || v {
		t.Fatalf("Bool false: %v %v", v, err)
	}
	if v, err := r.Float64(); err != nil || v != -3.25 {
		t.Fatalf("Float64: %v %v", v, err)
	}
	if v, err := r.Bytes(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes: %v %v", v, err)
	}
	if v, err := r.String(); err != nil || v != "yesquel" {
		t.Fatalf("String: %q %v", v, err)
	}
	if v, err := r.Bytes(); err != nil || len(v) != 0 {
		t.Fatalf("empty Bytes: %v %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	// Every decoding method must fail cleanly on an empty buffer.
	r := NewReader(nil)
	if _, err := r.Uvarint(); err == nil {
		t.Fatal("Uvarint on empty: want error")
	}
	if _, err := r.Uint64(); err == nil {
		t.Fatal("Uint64 on empty: want error")
	}
	if _, err := r.Byte(); err == nil {
		t.Fatal("Byte on empty: want error")
	}
	if _, err := r.Bytes(); err == nil {
		t.Fatal("Bytes on empty: want error")
	}
	// A length prefix larger than the remaining payload must error.
	b := NewBuffer(8)
	b.PutUvarint(100)
	b.PutByte('x')
	r = NewReader(b.Bytes())
	if _, err := r.Bytes(); err == nil {
		t.Fatal("Bytes with lying prefix: want error")
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(8)
	b.PutString("abc")
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.PutString("xyz")
	r := NewReader(b.Bytes())
	if v, _ := r.String(); v != "xyz" {
		t.Fatalf("after reset: %q", v)
	}
}

func TestBytesAliasCapped(t *testing.T) {
	// Reader.Bytes must return a slice with capped capacity so appends
	// by the caller cannot scribble over adjacent encoded data.
	b := NewBuffer(16)
	b.PutBytes([]byte("aa"))
	b.PutBytes([]byte("bb"))
	r := NewReader(b.Bytes())
	first, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	_ = append(first, 'Z') // must reallocate, not overwrite
	second, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "bb" {
		t.Fatalf("append through alias corrupted next field: %q", second)
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s []byte) bool {
		b := NewBuffer(32)
		b.PutUvarint(u)
		b.PutVarint(i)
		b.PutBytes(s)
		r := NewReader(b.Bytes())
		gu, err1 := r.Uvarint()
		gi, err2 := r.Varint()
		gs, err3 := r.Bytes()
		return err1 == nil && err2 == nil && err3 == nil &&
			gu == u && gi == i && bytes.Equal(gs, s) && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadFrame reads arbitrary bytes as a stream of frames: nothing
// panics, a frame over MaxFrameSize is refused, and every frame read
// writes back as exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello"))
	WriteFrame(&buf, nil)
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 9, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		r := bytes.NewReader(p)
		for {
			start := len(p) - r.Len()
			payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			var out bytes.Buffer
			if err := WriteFrame(&out, payload); err != nil {
				t.Fatalf("a frame read back does not write: %v", err)
			}
			if read := p[start : len(p)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
				t.Fatalf("frame read from %x writes as %x", read, out.Bytes())
			}
		}
	})
}
