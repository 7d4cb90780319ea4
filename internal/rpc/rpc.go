// Package rpc implements the remote procedure call stack used between
// Yesquel clients and storage servers.
//
// Design:
//
//   - One TCP connection per (client, server) pair, multiplexed: many
//     in-flight calls share the connection and responses may arrive out
//     of order, matched to callers by request id.
//   - Payloads are opaque []byte; marshalling belongs to the caller
//     (internal/kv hand-rolls encoders with internal/wire).
//   - Contexts: a call fails with ctx.Err() when its context is done;
//     cancellation does not tear down the connection.
//   - Errors returned by handlers travel back as application errors and
//     are distinguished from transport errors.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"yesquel/internal/wire"
)

// readBufSize sizes the buffered reader in front of each connection.
// Frame reads otherwise cost two read syscalls each (header, payload);
// buffering collapses them to one and, under pipelined load, drains
// several queued frames per syscall — on loopback the RPC stack is
// syscall-bound, so this is a measurable share of commit latency.
const readBufSize = 1 << 16

// Handler processes one request and returns the response payload.
// Returning an error sends an application error to the caller; the
// connection stays healthy.
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// Errors surfaced by the package.
var (
	ErrClosed        = errors.New("rpc: connection closed")
	ErrUnknownMethod = errors.New("rpc: unknown method")
	// ErrNotSent marks a call that failed before the request reached the
	// wire: the remote side cannot have executed it, so even
	// non-idempotent operations are safe to retry elsewhere. Transport
	// failures after the send do not carry it — the outcome is unknown.
	ErrNotSent = errors.New("rpc: request not sent")
)

// AppError is an error returned by the remote handler (as opposed to a
// transport failure). The text crosses the wire; the type does not.
// Code, when nonzero, is a service-defined classification assigned by
// the server's error coder (SetErrorCoder); a coder-less server sends 0.
type AppError struct {
	Msg  string
	Code uint64
}

func (e *AppError) Error() string { return e.Msg }

// AppErrIs reports whether err is an application error whose wire code
// is code.
func AppErrIs(err error, code uint64) bool {
	var app *AppError
	return errors.As(err, &app) && app.Code == code
}

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

func encodeRequest(id uint64, method string, body []byte) []byte {
	b := wire.NewBuffer(16 + len(method) + len(body))
	b.PutByte(kindRequest)
	b.PutUvarint(id)
	b.PutString(method)
	b.PutBytes(body)
	return b.Bytes()
}

func encodeResponse(id uint64, body []byte, appErr error, code uint64) []byte {
	b := wire.NewBuffer(16 + len(body))
	b.PutByte(kindResponse)
	b.PutUvarint(id)
	if appErr != nil {
		b.PutByte(statusErr)
		b.PutString(appErr.Error())
		b.PutUvarint(code)
	} else {
		b.PutByte(statusOK)
		b.PutBytes(body)
	}
	return b.Bytes()
}

// decodeResponse is the inverse of encodeResponse: the request id the
// frame answers and the call's outcome. A frame that is not a complete
// response is an error (the caller drops the connection).
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
		res.err = app
		return id, res, nil
	}
	if res.body, err = r.BytesCopy(); err != nil {
		return 0, res, err
	}
	return id, res, nil
}

// Server serves RPC requests on a listener. Methods are registered
// before Serve is called; registration after Serve starts is not
// supported (no locking on the read path).
type Server struct {
	handlers map[string]Handler
	coder    func(error) uint64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	baseCtx  context.Context
	cancelFn context.CancelFunc
}

// NewServer returns a Server with no registered methods.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
		baseCtx:  ctx,
		cancelFn: cancel,
	}
}

// Register installs h as the handler for method. It must be called
// before Serve.
func (s *Server) Register(method string, h Handler) {
	s.handlers[method] = h
}

// SetErrorCoder installs f to assign wire codes to handler errors
// (AppError.Code on the client side). Like Register, it must be called
// before Serve. The coder also classifies the server's own
// unknown-method rejection, which wraps ErrUnknownMethod. A nil or
// absent coder sends code 0.
func (s *Server) SetErrorCoder(f func(error) uint64) {
	s.coder = f
}

func (s *Server) errCode(err error) uint64 {
	if err == nil || s.coder == nil {
		return 0
	}
	return s.coder(err)
}

// Serve accepts connections on ln until Close is called. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes all connections, and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancelFn()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()

	var writeMu sync.Mutex
	var handlerWG sync.WaitGroup
	defer handlerWG.Wait()

	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		r := wire.NewReader(payload)
		kind, err := r.Byte()
		if err != nil || kind != kindRequest {
			return // protocol error: drop the connection
		}
		id, err := r.Uvarint()
		if err != nil {
			return
		}
		method, err := r.String()
		if err != nil {
			return
		}
		body, err := r.Bytes()
		if err != nil {
			return
		}
		h, ok := s.handlers[method]
		if !ok {
			unknownErr := fmt.Errorf("%w: %s", ErrUnknownMethod, method)
			writeMu.Lock()
			wire.WriteFrame(conn, encodeResponse(id, nil, unknownErr, s.errCode(unknownErr)))
			writeMu.Unlock()
			continue
		}
		// Handlers run concurrently: a slow prepare must not block an
		// unrelated read on the same connection.
		handlerWG.Add(1)
		go func(id uint64, body []byte) {
			defer handlerWG.Done()
			resp, appErr := h(s.baseCtx, body)
			writeMu.Lock()
			err := wire.WriteFrame(conn, encodeResponse(id, resp, appErr, s.errCode(appErr)))
			writeMu.Unlock()
			if err != nil {
				conn.Close()
			}
		}(id, body)
	}
}

// Client is a multiplexed RPC client bound to one server address.
// It is safe for concurrent use by multiple goroutines.
type Client struct {
	conn    net.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan callResult
	closed  bool
	err     error

	nextID atomic.Uint64
}

type callResult struct {
	body []byte
	err  error
}

// defaultDialTimeout bounds connection establishment: a blackholed
// host (power loss, partition without RST) must not stall the caller
// for the kernel's multi-minute connect timeout.
const defaultDialTimeout = 10 * time.Second

// Dial connects to a server at addr with the default connect timeout.
//
//yesqlint:blocking
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, defaultDialTimeout)
}

// DialTimeout connects to a server at addr, failing after the given
// connect timeout (0 = the package default).
//
//yesqlint:blocking
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = defaultDialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // small RPCs dominate; never batch at the kernel
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan callResult),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection. In-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	for id, ch := range c.pending {
		ch <- callResult{err: err}
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.conn.Close()
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		id, res, err := decodeResponse(payload)
		if err != nil {
			c.fail(fmt.Errorf("%w: bad frame: %v", ErrClosed, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- res
		}
		// A response for an unknown id means the call was cancelled;
		// drop it.
	}
}

// Call issues method(req) and waits for the response or ctx done.
//
//yesqlint:blocking
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	id := c.nextID.Add(1)
	ch := make(chan callResult, 1)

	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.send(encodeRequest(id, method, req)); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A write error means the frame did not go out whole; the server
		// drops torn frames without executing them.
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}

	select {
	case res := <-ch:
		return res.body, res.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (c *Client) send(frame []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return wire.WriteFrame(c.conn, frame)
}
