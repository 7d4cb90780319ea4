// Package rpc implements the remote procedure call stack used between
// Yesquel clients and storage servers.
//
// Design:
//
//   - One call in flight per TCP connection. A Client is a pool of
//     connections to one address: Call checks one out, writes the
//     request and reads the reply on the calling goroutine, and checks
//     it back in, so a round trip wakes two goroutines — the server's
//     connection reader and the caller — and hands off to no other.
//   - Since nothing can queue behind a call on its connection, the
//     server runs the handler on the connection's own goroutine and
//     writes the reply itself; a blocked handler delays only its caller.
//   - The pool grows with the callers' concurrency (a call that finds no
//     idle connection dials one), is bounded by its peak, reuses the
//     most recently used connection first, and never shrinks before
//     Close.
//   - Payloads are opaque []byte; marshalling belongs to the caller
//     (internal/kv describes each message once, as a field list that a
//     wire.Codec runs). A handler appends its reply straight into the
//     connection's reused reply frame (AppendHandler), so a reply is
//     encoded once and never copied. A reply frame the client reads is a
//     fresh allocation that nothing else writes: Call hands it to the
//     caller, who may decode it in place (wire.DecodeInPlace). This is a
//     contract: SQL rows keep references into the reply frames their
//     scans read, TEXT values among them as strings over its bytes, so a
//     reply frame must never be pooled or reused.
//   - Contexts: a call fails with ctx.Err() when its context is done.
//     Cancellation interrupts the blocked read and costs that one
//     connection (its reply may still arrive, so it is closed, never
//     reused), not the Client.
//   - Any other transport error, on any connection, fails the whole
//     Client: every later Call returns ErrNotSent and the owner redials
//     or rotates. An idle connection is probed for a dead peer before a
//     request is written on it, so a call that starts after the peer's
//     death is ErrNotSent as well, not a call of unknown outcome.
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
	"syscall"
	"time"

	"yesquel/internal/wire"
)

// readBufSize sizes the buffered reader in front of each connection: a
// frame's header and a small payload arrive in one read syscall instead
// of two. With one frame in flight there is never a second one to
// drain, and bufio reads what a larger payload still lacks straight
// into its destination, so a bigger buffer would only cost memory —
// per connection, on both sides, times the callers' concurrency.
const readBufSize = 4 << 10

// Handler processes one request and returns the response payload.
// Returning an error sends an application error to the caller; the
// connection stays healthy.
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// AppendHandler processes one request and appends the response payload,
// length-prefixed as by wire.Buffer.PutBytes, to reply, which already
// holds the frame's header. It either appends its whole payload or
// returns an error before appending anything; an error is sent as
// Handler's is. The request bytes belong to the handler.
type AppendHandler func(ctx context.Context, req []byte, reply *wire.Buffer) error

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
// Code and Detail are what the server's error coder (SetErrorCoder)
// made of the error: a service-defined class, nonzero when assigned, and
// a payload the service decodes. A coder-less server sends 0 and none.
type AppError struct {
	Msg    string
	Code   uint64
	Detail []byte // aliases the reply frame
}

func (e *AppError) Error() string { return e.Msg }

// Server serves RPC requests on a listener. Methods are registered
// before Serve is called; registration after Serve starts is not
// supported (no locking on the read path).
type Server struct {
	handlers map[string]AppendHandler
	coder    func(err error, detail *wire.Buffer) uint64

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
		handlers: make(map[string]AppendHandler),
		coder:    func(error, *wire.Buffer) uint64 { return 0 },
		conns:    make(map[net.Conn]struct{}),
		baseCtx:  ctx,
		cancelFn: cancel,
	}
}

// Register installs h as the handler for method. It must be called
// before Serve. h runs as an AppendHandler that appends the payload it
// returns.
func (s *Server) Register(method string, h Handler) {
	s.RegisterAppend(method, func(ctx context.Context, req []byte, reply *wire.Buffer) error {
		body, err := h(ctx, req)
		if err == nil {
			reply.PutBytes(body)
		}
		return err
	})
}

// RegisterAppend installs h as the handler for method. It must be called
// before Serve.
func (s *Server) RegisterAppend(method string, h AppendHandler) {
	s.handlers[method] = h
}

// SetErrorCoder installs f to classify handler errors: f returns the
// error's wire code and appends its detail (AppError.Code and Detail on
// the client side). Like Register, it must be called before Serve. The
// coder also classifies the server's own unknown-method rejection, which
// wraps ErrUnknownMethod. An absent coder sends code 0 and no detail.
func (s *Server) SetErrorCoder(f func(err error, detail *wire.Buffer) uint64) {
	s.coder = f
}

// Conns returns the number of open inbound connections: one per call
// in flight or idle in some client's pool.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
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

// Close stops accepting, closes all connections, and waits for the
// connection goroutines — and the handlers running on them — to drain.
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

// serveConn answers the connection's calls one at a time, running each
// handler on this goroutine: the protocol puts one call on a connection,
// so no request can be waiting behind the handler.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()

	br := bufio.NewReaderSize(conn, readBufSize)
	var reply, detail wire.Buffer
	for {
		// Every request frame is its own allocation, never a reused
		// buffer: a handler owns the request it is given. (kv decodes
		// requests by copying; only read replies, on the client, are
		// decoded in place.)
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		id, method, body, err := decodeRequest(payload)
		if err != nil {
			return // protocol error: drop the connection
		}
		beginResponse(&reply, id, statusOK)
		var appErr error
		if h, ok := s.handlers[string(method)]; ok {
			appErr = h(s.baseCtx, body, &reply)
		} else {
			appErr = fmt.Errorf("%w: %s", ErrUnknownMethod, method)
		}
		if appErr != nil {
			detail.Reset()
			encodeError(&reply, id, appErr, s.coder(appErr, &detail), detail.Bytes())
		}
		if err := writeFrame(conn, &reply); err != nil {
			return
		}
	}
}

// Client is an RPC client bound to one server address: a pool of
// connections, each carrying one call at a time. It is safe for
// concurrent use by multiple goroutines.
type Client struct {
	addr    string
	timeout time.Duration

	mu    sync.Mutex
	idle  []*clientConn            // checked in, most recently used last
	conns map[*clientConn]struct{} // every open connection, idle or in a call
	err   error                    // set once, by fail: no call after it is sent
}

// clientConn is one pooled connection; while checked out it belongs to
// the calling goroutine alone. The two funcs are built once per
// connection so that a call allocates neither.
type clientConn struct {
	nc     net.Conn
	br     *bufio.Reader
	wbuf   wire.Buffer // write scratch
	lastID uint64

	raw       syscall.RawConn
	probe     func(fd uintptr) bool // one non-blocking read; sets idle
	idle      bool                  // the probe found the peer alive and silent
	interrupt func()                // fails a cancelled call's blocked read or write
}

// defaultDialTimeout bounds connection establishment: a blackholed
// host (power loss, partition without RST) must not stall the caller
// for the kernel's multi-minute connect timeout.
const defaultDialTimeout = 10 * time.Second

// Dial connects to a server at addr with the default connect timeout.
//
//yesqlint:blocking
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, defaultDialTimeout)
}

// DialContext connects to a server at addr, failing after the given
// connect timeout (0 = the package default), which also bounds each
// dial by which the pool later grows, or when ctx is done.
//
//yesqlint:blocking
func DialContext(ctx context.Context, addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = defaultDialTimeout
	}
	c := &Client{addr: addr, timeout: timeout, conns: make(map[*clientConn]struct{})}
	cn, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.idle = append(c.idle, cn)
	return c, nil
}

func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	nc, err := (&net.Dialer{Timeout: c.timeout}).DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	tc := nc.(*net.TCPConn)
	tc.SetNoDelay(true) // small RPCs dominate; never batch at the kernel
	raw, err := tc.SyscallConn()
	if err != nil {
		nc.Close()
		return nil, err
	}
	cn := &clientConn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize), raw: raw}
	cn.probe = func(fd uintptr) bool {
		var b [1]byte
		_, err := syscall.Read(int(fd), b[:])
		// Anything but "nothing to read yet" — data, end of stream, a
		// reset — means this connection cannot carry another call.
		cn.idle = err == syscall.EAGAIN || err == syscall.EINTR
		return true // never wait for readability
	}
	cn.interrupt = func() { nc.SetDeadline(time.Unix(1, 0)) }
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		nc.Close()
		return nil, c.err
	}
	c.conns[cn] = struct{}{}
	return cn, nil
}

// Close tears down every connection. In-flight calls fail with
// ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}

// fail records the client's first failure and closes every connection,
// failing the calls blocked on them; it returns that first failure.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err, c.idle = err, nil
		for cn := range c.conns {
			cn.nc.Close()
		}
	}
	return c.err
}

// checkOut takes the most recently used idle connection, or dials one
// when every connection is in a call. A pooled connection is probed
// first: a peer that died while it sat idle has closed or reset it, and
// learning that before the request is written is what keeps such a call
// unsent. The probe is one read syscall that must find nothing.
func (c *Client) checkOut() (*clientConn, error) {
	c.mu.Lock()
	err := c.err
	var cn *clientConn
	if n := len(c.idle); n > 0 && err == nil {
		cn, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case cn == nil:
		if cn, err = c.dial(context.Background()); err != nil {
			return nil, c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		}
	case cn.raw.Read(cn.probe) != nil || !cn.idle || cn.br.Buffered() > 0:
		return nil, c.fail(fmt.Errorf("%w: peer closed an idle connection", ErrClosed))
	}
	return cn, nil
}

// checkIn returns a connection to the pool, or — when its stream can no
// longer be trusted, as after a cancelled call whose reply may yet
// arrive — closes that one connection and leaves the client healthy.
func (c *Client) checkIn(cn *clientConn, reuse bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !reuse:
		delete(c.conns, cn)
		cn.nc.Close()
	case c.err == nil: // a failed client has closed it already
		c.idle = append(c.idle, cn)
	}
}

// Call issues method(req) and waits for the response or ctx done.
//
//yesqlint:blocking
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	cn, err := c.checkOut()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	// A context that can end interrupts the exchange by expiring the
	// connection's deadline; stop reports false once that has begun.
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, cn.interrupt)
	}
	cn.lastID++
	encodeRequest(&cn.wbuf, cn.lastID, method, req)
	sent := false
	var res callResult
	if err = writeFrame(cn.nc, &cn.wbuf); err == nil {
		sent = true
		res, err = cn.readResponse()
	}
	clean := stop()
	switch {
	case err == nil:
		c.checkIn(cn, clean) // a reply that beat the cancellation still counts
		return res.body, res.err
	case !clean:
		c.checkIn(cn, false)
		return nil, ctx.Err()
	}
	err = c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	if !sent {
		// A write error means the frame did not go out whole; the server
		// drops torn frames without executing them.
		err = fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	return nil, err
}

// readResponse reads the reply to the request just written. The reply
// frame is a fresh allocation, owned by the caller through res.body.
func (cn *clientConn) readResponse() (res callResult, err error) {
	payload, err := wire.ReadFrame(cn.br)
	if err != nil {
		return res, err
	}
	id, res, err := decodeResponse(payload)
	if err == nil && id != cn.lastID {
		err = fmt.Errorf("reply to call %d where %d was expected", id, cn.lastID)
	}
	return res, err
}
