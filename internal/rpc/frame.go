package rpc

import (
	"encoding/binary"
	"fmt"
	"io"

	"yesquel/internal/wire"
)

// The frame layout: a four-byte length, then kind, call id, and either
// (request) method and body or (response) status and body or error text,
// code and detail.

// frame kinds
const (
	kindRequest  = 0
	kindResponse = 1
)

// response status
const (
	statusOK  = 0
	statusErr = 1
)

// framePrefix is the length prefix wire.ReadFrame expects. The encoders
// reserve it, so a frame is built once, in its connection's scratch, and
// leaves in one Write.
const framePrefix = 4

func encodeRequest(b *wire.Buffer, id uint64, method string, body []byte) {
	b.Reset()
	b.PutUint32(0)
	b.PutByte(kindRequest)
	b.PutUvarint(id)
	b.PutString(method)
	b.PutBytes(body)
}

// decodeRequest is the inverse of encodeRequest; method and body alias
// payload.
func decodeRequest(payload []byte) (id uint64, method, body []byte, err error) {
	r := wire.NewReader(payload)
	kind, err := r.Byte()
	if err == nil && kind != kindRequest {
		err = fmt.Errorf("rpc: frame kind %d where a request was expected", kind)
	}
	if err == nil {
		id, err = r.Uvarint()
	}
	if err == nil {
		method, err = r.Bytes()
	}
	if err == nil {
		body, err = r.Bytes()
	}
	return id, method, body, err
}

// beginResponse makes b the header of the response to call id with the
// given status; a successful one's handler appends the length-prefixed
// body.
func beginResponse(b *wire.Buffer, id uint64, status byte) {
	b.Reset()
	b.PutUint32(0)
	b.PutByte(kindResponse)
	b.PutUvarint(id)
	b.PutByte(status)
}

// encodeError makes b the response to call id that reports appErr.
func encodeError(b *wire.Buffer, id uint64, appErr error, code uint64, detail []byte) {
	beginResponse(b, id, statusErr)
	b.PutString(appErr.Error())
	b.PutUvarint(code)
	b.PutBytes(detail)
}

// maxScratch bounds the write scratch a connection keeps between
// frames; one large frame (a snapshot chunk) must not pin its size for
// the connection's life.
const maxScratch = 64 << 10

// writeFrame fills in the length prefix of the frame encoded in b and
// writes it to w.
func writeFrame(w io.Writer, b *wire.Buffer) error {
	frame := b.Bytes()
	if cap(frame) > maxScratch {
		*b = wire.Buffer{}
	}
	if len(frame)-framePrefix > wire.MaxFrameSize {
		return wire.ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-framePrefix))
	_, err := w.Write(frame)
	return err
}

// callResult is a call's outcome: the reply body or the handler's error.
type callResult struct {
	body []byte
	err  error
}

// decodeResponse reads a response frame (beginResponse and a body, or
// encodeError): the request id the frame answers and the call's outcome,
// whose body aliases payload. A frame that is not a complete response is
// an error (the caller drops the connection).
func decodeResponse(payload []byte) (id uint64, res callResult, err error) {
	r := wire.NewReader(payload)
	kind, err := r.Byte()
	if err != nil {
		return 0, res, err
	}
	if kind != kindResponse {
		return 0, res, fmt.Errorf("rpc: frame kind %d where a response was expected", kind)
	}
	if id, err = r.Uvarint(); err != nil {
		return 0, res, err
	}
	status, err := r.Byte()
	if err != nil {
		return 0, res, err
	}
	if status == statusErr {
		app := &AppError{}
		if app.Msg, err = r.String(); err != nil {
			return 0, res, err
		}
		if app.Code, err = r.Uvarint(); err != nil {
			return 0, res, err
		}
		if app.Detail, err = r.Bytes(); err != nil {
			return 0, res, err
		}
		res.err = app
		return id, res, nil
	}
	if res.body, err = r.Bytes(); err != nil {
		return 0, res, err
	}
	return id, res, nil
}
