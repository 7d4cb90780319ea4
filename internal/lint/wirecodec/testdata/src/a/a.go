// Package a exercises the wirecodec analyzer against the real
// internal/wire primitives.
package a

import "yesquel/internal/wire"

// Sym is a symmetric message with a nested helper and a counted loop:
// fully clean.
type Sym struct {
	ID    uint64
	Name  string
	Items []uint32
	Mark  uint64
}

func encodeHeader(b *wire.Buffer, id uint64, name string) {
	b.PutUvarint(id)
	b.PutString(name)
}

func decodeHeader(r *wire.Reader) (uint64, string, error) {
	id, err := r.Uvarint()
	if err != nil {
		return 0, "", err
	}
	name, err := r.String()
	if err != nil {
		return 0, "", err
	}
	return id, name, nil
}

func (m *Sym) Encode() []byte {
	b := wire.NewBuffer(64)
	encodeHeader(b, m.ID, m.Name)
	b.PutUvarint(uint64(len(m.Items)))
	for _, it := range m.Items {
		b.PutUint32(it)
	}
	b.PutUvarint(m.Mark)
	return b.Bytes()
}

func DecodeSym(p []byte) (*Sym, error) {
	r := wire.NewReader(p)
	id, name, err := decodeHeader(r)
	if err != nil {
		return nil, err
	}
	m := &Sym{ID: id, Name: name}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		v, err := r.Uint32()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, v)
	}
	if m.Mark, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

// Mismatch writes a uvarint where the decoder reads a uint64.
type Mismatch struct {
	Seq uint64
	TS  uint64
}

func (m *Mismatch) Encode() []byte {
	b := wire.NewBuffer(16)
	b.PutUvarint(m.Seq)
	b.PutUvarint(m.TS)
	return b.Bytes()
}

func DecodeMismatch(p []byte) (*Mismatch, error) {
	r := wire.NewReader(p)
	m := &Mismatch{}
	var err error
	if m.Seq, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if m.TS, err = r.Uint64(); err != nil { // want `Mismatch\.Encode writes uvarint at op 2 but DecodeMismatch reads uint64`
		return nil, err
	}
	return m, nil
}

// Short: the encoder writes a field the decoder never reads.
type Short struct {
	A uint64
	B uint64
}

func (m *Short) Encode() []byte {
	b := wire.NewBuffer(16)
	b.PutUvarint(m.A)
	b.PutUvarint(m.B) // want `Short\.Encode writes 2 ops but DecodeShort reads only 1`
	return b.Bytes()
}

func DecodeShort(p []byte) (*Short, error) {
	r := wire.NewReader(p)
	m := &Short{}
	var err error
	if m.A, err = r.Uvarint(); err != nil {
		return nil, err
	}
	return m, nil
}

// Opt violates the one-layout rule: the decoder reads B only when
// bytes remain, so a buffer truncated before B passes for a message.
type Opt struct {
	A uint64
	B uint64
}

func (m *Opt) Encode() []byte {
	b := wire.NewBuffer(16)
	b.PutUvarint(m.A)
	b.PutUvarint(m.B)
	return b.Bytes()
}

func DecodeOpt(p []byte) (*Opt, error) {
	r := wire.NewReader(p)
	m := &Opt{}
	var err error
	if m.A, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if r.Remaining() > 0 { // want `DecodeOpt reads a field only when Remaining\(\) says it is there`
		if m.B, err = r.Uvarint(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// A Remaining() check that guards no read is fine: rejecting trailing
// garbage is input validation, not a second layout.
type Exact struct {
	A uint64
}

func (m *Exact) Encode() []byte {
	b := wire.NewBuffer(8)
	b.PutUvarint(m.A)
	return b.Bytes()
}

func DecodeExact(p []byte) (*Exact, error) {
	r := wire.NewReader(p)
	m := &Exact{}
	var err error
	if m.A, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if r.Remaining() > 0 {
		return nil, wire.ErrShortBuffer
	}
	return m, nil
}

// Branchy codecs (per-kind switches) are out of scope: skipped, no
// findings even though the arms differ.
type Branchy struct {
	Kind byte
	A    uint64
	S    string
}

func (m *Branchy) Encode() []byte {
	b := wire.NewBuffer(16)
	b.PutByte(m.Kind)
	if m.Kind == 0 {
		b.PutUvarint(m.A)
	} else {
		b.PutString(m.S)
	}
	return b.Bytes()
}

func DecodeBranchy(p []byte) (*Branchy, error) {
	r := wire.NewReader(p)
	m := &Branchy{}
	var err error
	if m.Kind, err = r.Byte(); err != nil {
		return nil, err
	}
	if m.Kind == 0 {
		if m.A, err = r.Uvarint(); err != nil {
			return nil, err
		}
	} else if m.S, err = r.String(); err != nil {
		return nil, err
	}
	return m, nil
}
