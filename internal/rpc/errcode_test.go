package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"yesquel/internal/wire"
)

// Typed error codes: the server's coder stamps AppError.Code and Detail
// onto the wire, so a client classifies an error without looking at its
// text. These tests pin the round trip, the unknown-method stamping, the
// coder-less zero, and that the error frame has one layout: a frame cut
// short of its code or detail is a bad frame, never a code-less error.

var errTestSentinel = errors.New("errcode_test: sentinel")

const testCode = 42

func TestErrorCodeRoundTrip(t *testing.T) {
	s := NewServer()
	s.Register("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, fmt.Errorf("%w: wrapped detail", errTestSentinel)
	})
	s.SetErrorCoder(func(err error, detail *wire.Buffer) uint64 {
		if errors.Is(err, errTestSentinel) {
			detail.PutString("detail")
			return testCode
		}
		return 0
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "fail", nil)
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("want *AppError, got %v", err)
	}
	if app.Code != testCode {
		t.Fatalf("Code = %d, want %d", app.Code, testCode)
	}
	if d, err := wire.NewReader(app.Detail).String(); err != nil || d != "detail" {
		t.Fatalf("Detail = %x, want the coder's string", app.Detail)
	}
}

func TestErrorCodeUnknownMethod(t *testing.T) {
	s := NewServer()
	s.SetErrorCoder(func(err error, _ *wire.Buffer) uint64 {
		if errors.Is(err, ErrUnknownMethod) {
			return testCode
		}
		return 0
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "no-such-method", nil)
	var app *AppError
	if !errors.As(err, &app) || app.Code != testCode {
		t.Fatalf("unknown-method rejection not stamped with coder's code: %v", err)
	}
}

func TestErrorCodeCoderless(t *testing.T) {
	// No coder installed: the server sends code 0, and the sentinel's
	// text in the message classifies nothing.
	s := NewServer()
	s.Register("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, fmt.Errorf("outer: %w", errTestSentinel)
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "fail", nil)
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("want *AppError, got %v", err)
	}
	if app.Code != 0 || len(app.Detail) != 0 {
		t.Fatalf("Code = %d, Detail = %x, want 0 and none from a coder-less server", app.Code, app.Detail)
	}
}

// TestTruncatedResponseFrames cuts an error response and an ok response
// at every prefix length: none may decode.
func TestTruncatedResponseFrames(t *testing.T) {
	var errFrame, okFrame wire.Buffer
	encodeError(&errFrame, 7, errTestSentinel, testCode, []byte("detail"))
	beginResponse(&okFrame, 7, statusOK)
	okFrame.PutBytes([]byte("body"))
	for name, full := range map[string][]byte{
		"error": errFrame.Bytes()[framePrefix:],
		"ok":    okFrame.Bytes()[framePrefix:],
	} {
		if _, _, err := decodeResponse(full); err != nil {
			t.Fatalf("%s frame: %v", name, err)
		}
		for cut := 0; cut < len(full); cut++ {
			if _, _, err := decodeResponse(full[:cut]); !errors.Is(err, wire.ErrShortBuffer) {
				t.Fatalf("%s frame truncated to %d of %d bytes: err = %v, want ErrShortBuffer", name, cut, len(full), err)
			}
		}
	}
}

// TestCodelessErrorFrameFailsConnection feeds the client an error
// response that stops after the message — no code — from a hand-rolled
// server: the client must treat it as a bad frame and fail the
// connection, not deliver a code-0 application error.
func TestCodelessErrorFrameFailsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		r := wire.NewReader(payload)
		r.Byte()             // kind
		id, _ := r.Uvarint() // request id
		b := wire.NewBuffer(32)
		b.PutByte(kindResponse)
		b.PutUvarint(id)
		b.PutByte(statusErr)
		b.PutString("no code follows")
		wire.WriteFrame(conn, b.Bytes())
		wire.ReadFrame(conn) // hold the conn open until the client is done
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), "anything", nil)
	var app *AppError
	if errors.As(err, &app) || !errors.Is(err, ErrClosed) {
		t.Fatalf("code-less error frame: err = %v, want the connection failed with ErrClosed", err)
	}
}
