package wire

import (
	"bytes"
	"testing"
)

// BenchmarkFrame is one 256-byte frame written and read back through a
// memory buffer: the framing cost alone, no socket.
//
//	go test ./internal/wire -run '^$' -bench . -benchtime 200000x -benchmem
func BenchmarkFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{'x'}, 256)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for b.Loop() {
		if err := WriteFrame(&buf, payload); err != nil {
			b.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil || len(got) != len(payload) {
			b.Fatalf("ReadFrame: %d bytes, %v", len(got), err)
		}
	}
}
