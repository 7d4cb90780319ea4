package wire

import (
	"errors"
	"testing"
)

type pair struct {
	ID   uint64
	Tags []string
}

func (p *pair) wire(c *Codec) {
	c.Uvarint(&p.ID)
	c.Strings(&p.Tags)
}

var errBad = errors.New("bad")

func TestCodecRoundTripAndSize(t *testing.T) {
	in := &pair{ID: 300, Tags: []string{"a", "", "bcd"}}
	enc := Encode(in, (*pair).wire)
	if n := Size(in, (*pair).wire); n != len(enc) {
		t.Fatalf("Size = %d, encoding is %d bytes", n, len(enc))
	}
	out, err := Decode(enc, errBad, (*pair).wire)
	if err != nil || out.ID != in.ID || len(out.Tags) != 3 || out.Tags[2] != "bcd" {
		t.Fatalf("decoded %+v, %v", out, err)
	}
}

// TestCodecCountRefusesWhatThePayloadCannotHold: a count larger than the
// rest of the payload holds at the element's minimum size is refused as
// the decoder's bad-input error, and the error is sticky. A payload cut
// short is a bad input too, so a receiver classing errors by it refuses
// both alike.
func TestCodecCountRefusesWhatThePayloadCannotHold(t *testing.T) {
	var b Buffer
	b.PutUvarint(7)
	b.PutUvarint(4) // four tags in three bytes
	b.PutString("a")
	b.PutByte(0)
	if _, err := Decode(b.Bytes(), errBad, (*pair).wire); !errors.Is(err, errBad) {
		t.Fatalf("err = %v, want errBad", err)
	}
	if _, err := Decode(b.Bytes()[:1], errBad, (*pair).wire); !errors.Is(err, ErrShortBuffer) || !errors.Is(err, errBad) {
		t.Fatalf("truncated: err = %v, want ErrShortBuffer wrapped in errBad", err)
	}
}

type blob struct{ Data []byte }

func (b *blob) wire(c *Codec) { c.Bytes(&b.Data) }

// TestDecodeInPlace: DecodeInPlace leaves a byte string in the payload,
// its capacity clipped to its length, where Decode copies it; either way
// an empty one is not nil.
func TestDecodeInPlace(t *testing.T) {
	for _, data := range []string{"bytes", ""} {
		p := append(Encode(&blob{Data: []byte(data)}, (*blob).wire), 'x')
		copied, err := Decode(p, errBad, (*blob).wire)
		if err != nil {
			t.Fatal(err)
		}
		aliased, err := DecodeInPlace(p, errBad, (*blob).wire)
		if err != nil {
			t.Fatal(err)
		}
		if copied.Data == nil || aliased.Data == nil || cap(aliased.Data) != len(data) {
			t.Fatalf("%q: decoded %q and %q (cap %d)", data, copied.Data, aliased.Data, cap(aliased.Data))
		}
		if data == "" {
			continue
		}
		p[1] = 'B'
		if string(aliased.Data) != "Bytes" || string(copied.Data) != "bytes" {
			t.Fatalf("after the payload changed: in place %q, copied %q", aliased.Data, copied.Data)
		}
	}
}
