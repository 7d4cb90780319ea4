package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/wire"
)

// startServer launches s on an ephemeral port, closes it when the test
// ends, and returns its address.
func startServer(t *testing.T, s *Server) string {
	addr, _ := startCountingServer(t, s)
	return addr
}

// countingListener counts the connections it has accepted: with one call
// per connection, that is how far a client's pool has grown.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

func startCountingServer(t *testing.T, s *Server) (string, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	go s.Serve(cl)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String(), cl
}

func TestCallEcho(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	addr := startServer(t, s)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ab"), 4096)} {
		got, err := c.Call(context.Background(), "echo", payload)
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("echo mismatch: got %d bytes want %d", len(got), len(payload))
		}
	}
}

// TestAppendHandler: a handler appends its reply into the frame, and the
// frame of one call is not the next one's. A handler that fails after
// appending part of a reply still sends only the error, and the call
// after it on the same connection gets its own reply whole.
func TestAppendHandler(t *testing.T) {
	s := NewServer()
	s.RegisterAppend("greet", func(_ context.Context, req []byte, reply *wire.Buffer) error {
		if string(req) == "fail" {
			reply.PutUvarint(99) // half a reply
			return errors.New("refused")
		}
		reply.PutBytes(append([]byte("hello "), req...))
		return nil
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	first, err := c.Call(ctx, "greet", []byte("ann"))
	if err != nil || string(first) != "hello ann" {
		t.Fatalf("Call = %q, %v", first, err)
	}
	var app *AppError
	if _, err := c.Call(ctx, "greet", []byte("fail")); !errors.As(err, &app) || app.Msg != "refused" {
		t.Fatalf("failing handler: err = %v, want the application error", err)
	}
	second, err := c.Call(ctx, "greet", []byte("bo"))
	if err != nil || string(second) != "hello bo" || string(first) != "hello ann" {
		t.Fatalf("after a failure: Call = %q, %v; first reply now %q", second, err, first)
	}
}

// TestReplyFramesAreNeverReused: two calls on one pooled connection get
// replies in memory of their own. SQL rows keep references into the reply
// frames their scans read, so a frame must never be pooled or reused.
func TestReplyFramesAreNeverReused(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	addr, ln := startCountingServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	first, err := c.Call(ctx, "echo", bytes.Repeat([]byte{1}, 64))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Call(ctx, "echo", bytes.Repeat([]byte{2}, 64))
	if err != nil {
		t.Fatal(err)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("two sequential calls used %d connections, want 1", n)
	}
	// The memory each reply may reach: [start, start+cap).
	span := func(b []byte) (lo, hi uintptr) {
		lo = reflect.ValueOf(b).Pointer()
		return lo, lo + uintptr(cap(b))
	}
	lo1, hi1 := span(first)
	lo2, hi2 := span(second)
	if lo1 < hi2 && lo2 < hi1 {
		t.Fatalf("the replies share memory: [%#x, %#x) and [%#x, %#x)", lo1, hi1, lo2, hi2)
	}
	if !bytes.Equal(first, bytes.Repeat([]byte{1}, 64)) {
		t.Fatalf("the first reply changed under the second call: %v", first)
	}
}

func TestCallApplicationError(t *testing.T) {
	s := NewServer()
	s.Register("boom", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errors.New("kaboom")
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "boom", nil)
	var appErr *AppError
	if !errors.As(err, &appErr) {
		t.Fatalf("want AppError, got %T %v", err, err)
	}
	if appErr.Msg != "kaboom" {
		t.Fatalf("AppError.Msg = %q", appErr.Msg)
	}
	// The connection must remain usable after an application error.
	s.Register("never", nil) // no-op; ensures registration map untouched
	if _, err := c.Call(context.Background(), "boom", nil); err == nil {
		t.Fatal("second call should still reach the handler")
	}
}

func TestUnknownMethod(t *testing.T) {
	s := NewServer()
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), "nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("want unknown method error, got %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := NewServer()
	s.Register("id", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 32
	const calls = 200
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				msg := []byte(fmt.Sprintf("w%d-i%d", w, i))
				got, err := c.Call(context.Background(), "id", msg)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, msg) {
					errCh <- fmt.Errorf("mismatch: got %q want %q", got, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	s.Register("slow", func(_ context.Context, _ []byte) ([]byte, error) {
		<-release
		return []byte("slow"), nil
	})
	s.Register("fast", func(_ context.Context, _ []byte) ([]byte, error) {
		return []byte("fast"), nil
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "slow", nil)
		slowDone <- err
	}()
	// The fast call must complete while the slow handler is parked.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "fast", nil); err != nil {
		t.Fatalf("fast call blocked behind slow handler: %v", err)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestCallContextCancel cancels a call parked in its handler: the call
// returns ctx.Err(), the cancellation costs that one connection and not
// the client, and no later call is handed the cancelled call's reply
// when the handler finally sends it.
func TestCallContextCancel(t *testing.T) {
	s := NewServer()
	entered, release := make(chan struct{}), make(chan struct{})
	s.Register("block", func(_ context.Context, _ []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return []byte("late reply"), nil
	})
	s.Register("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	addr, ln := startCountingServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "block", nil)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// The client still works, on a connection of its own: the cancelled
	// call's was retired, so the pool dials a second one.
	echo := func(msg string) {
		t.Helper()
		got, err := c.Call(context.Background(), "echo", []byte(msg))
		if err != nil || string(got) != msg {
			t.Fatalf("call after a cancelled one: %q, %v; want %q", got, err, msg)
		}
	}
	echo("before the late reply")
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted after one cancelled call and one more, want 2", n)
	}
	close(release) // the handler now answers a call nobody waits for
	for i := 0; i < 20; i++ {
		echo(fmt.Sprintf("after the late reply %d", i))
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2: the late reply must cost nothing more", n)
	}
}

// TestPoolGrowsWithConcurrency: sequential calls share one connection,
// and M concurrent callers open at most M.
func TestPoolGrowsWithConcurrency(t *testing.T) {
	s := NewServer()
	const callers = 6
	var inHandler sync.WaitGroup
	inHandler.Add(callers)
	allIn := make(chan struct{})
	s.Register("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	s.Register("meet", func(_ context.Context, _ []byte) ([]byte, error) {
		inHandler.Done()
		<-allIn // every caller's call is in flight at once
		return nil, nil
	})
	addr, ln := startCountingServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 100; i++ {
		if _, err := c.Call(context.Background(), "echo", []byte("seq")); err != nil {
			t.Fatal(err)
		}
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("100 sequential calls used %d connections, want 1", n)
	}

	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), "meet", nil); err != nil {
				t.Error(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := c.Call(context.Background(), "echo", []byte("par")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	inHandler.Wait()
	close(allIn)
	wg.Wait()
	if n := ln.accepted.Load(); n != callers {
		t.Fatalf("%d callers in flight at once used %d connections, want exactly %d", callers, n, callers)
	}
	if n := s.Conns(); n != callers {
		t.Fatalf("Server.Conns() = %d, want %d", n, callers)
	}
}

// TestCallAfterPeerDeathIsNotSent: the server goes away while the pool
// sits idle. The next call must find that out before it writes — it is
// ErrNotSent, safe to retry elsewhere — and not after, when all it
// could say is that the outcome is unknown.
func TestCallAfterPeerDeathIsNotSent(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	c, err := Dial(startServer(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), "echo", []byte("x")); !errors.Is(err, ErrNotSent) {
			t.Fatalf("call %d after the server closed: %v, want ErrNotSent", i, err)
		}
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	s := NewServer()
	block, entered := make(chan struct{}), make(chan struct{})
	defer close(block)
	s.Register("block", func(ctx context.Context, _ []byte) ([]byte, error) {
		close(entered)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "block", nil)
		done <- err
	}()
	<-entered
	s.Close()
	select {
	case err := <-done:
		// The handler's ctx error may still get out as a reply before the
		// connection closes; either way the call fails, and a call that
		// was in flight when its peer died never claims it was not sent.
		if err == nil || errors.Is(err, ErrNotSent) {
			t.Fatalf("call in flight when the server closed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call did not fail after server close")
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	s := NewServer()
	block, entered := make(chan struct{}), make(chan struct{})
	defer close(block)
	s.Register("block", func(ctx context.Context, _ []byte) ([]byte, error) {
		close(entered)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "block", nil)
		done <- err
	}()
	<-entered
	c.Close()
	if err := <-done; !errors.Is(err, ErrClosed) || errors.Is(err, ErrNotSent) {
		t.Fatalf("call in flight at Close: want ErrClosed and not ErrNotSent, got %v", err)
	}
	// Calls after close fail immediately, unsent.
	if _, err := c.Call(context.Background(), "block", nil); !errors.Is(err, ErrClosed) || !errors.Is(err, ErrNotSent) {
		t.Fatalf("call after close: want ErrNotSent wrapping ErrClosed, got %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("Dial to closed port should fail")
	}
}

// TestDialContextCancelled: a dial whose context is done fails with the
// context's error instead of connecting — what lets the owner of a dial
// to an unreachable host end it without waiting out the timeout.
func TestDialContextCancelled(t *testing.T) {
	addr := startServer(t, NewServer())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, addr, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial with a cancelled context: %v, want context.Canceled", err)
	}
	c, err := DialContext(context.Background(), addr, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
