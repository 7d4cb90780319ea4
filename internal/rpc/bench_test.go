package rpc

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
)

// Layer benches for the rpc stack over loopback TCP, client and server
// in one process (so ns/op includes both sides' CPU on a small box).
//
//	go test ./internal/rpc -run '^$' -bench . -benchtime 20000x -benchmem

func benchServer(b *testing.B) string {
	b.Helper()
	s := NewServer()
	s.Register("ping", func(context.Context, []byte) ([]byte, error) { return nil, nil })
	s.Register("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	b.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// BenchmarkCall is one round trip: an empty ping and a 1 KiB echo, from
// 1, 2 and 8 closed-loop callers sharing one Client. allocs/op counts
// both processes' sides.
func BenchmarkCall(b *testing.B) {
	payloads := []struct {
		name, method string
		req          []byte
	}{
		{"ping", "ping", nil},
		{"echo1k", "echo", bytes.Repeat([]byte{'x'}, 1024)},
	}
	for _, p := range payloads {
		for _, callers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/%dcallers", p.name, callers), func(b *testing.B) {
				c, err := Dial(benchServer(b))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				ctx := context.Background()
				// Warm the pool to the callers' concurrency before timing.
				var warm sync.WaitGroup
				gate := make(chan struct{})
				for i := 0; i < callers; i++ {
					warm.Add(1)
					go func() {
						defer warm.Done()
						<-gate
						c.Call(ctx, p.method, p.req)
					}()
				}
				close(gate)
				warm.Wait()

				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < callers; w++ {
					n := b.N / callers
					if w == 0 {
						n += b.N % callers
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							reply, err := c.Call(ctx, p.method, p.req)
							if err != nil || len(reply) != len(p.req) {
								b.Errorf("Call: %d bytes, %v", len(reply), err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkCallCancellable is the ping again under a context that can
// end: what arming and disarming the interrupt adds to a call.
func BenchmarkCallCancellable(b *testing.B) {
	c, err := Dial(benchServer(b))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Call(ctx, "ping", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckoutProbe is the price of telling a dead peer from an
// idle one before a request is written: the non-blocking read every
// Call makes on the pooled connection it checks out.
func BenchmarkCheckoutProbe(b *testing.B) {
	c, err := Dial(benchServer(b))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cn := c.idle[0]
	b.ReportAllocs()
	for b.Loop() {
		if err := cn.raw.Read(cn.probe); err != nil || !cn.idle {
			b.Fatal("probe of a live idle connection:", err, cn.idle)
		}
	}
}
