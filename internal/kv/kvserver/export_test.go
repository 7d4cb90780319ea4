package kvserver

import "testing"

// SetSnapChunkBytes cuts snapshot encodings into n-byte chunks until t
// ends. Call it before starting the stores it is meant for.
func SetSnapChunkBytes(t testing.TB, n int) {
	old := snapChunkBytes
	snapChunkBytes = n
	t.Cleanup(func() { snapChunkBytes = old })
}

// SetLogMaxBytes bounds the retained tail of every store without a
// record bound at n estimated bytes until t ends.
func SetLogMaxBytes(t testing.TB, n int) {
	old := logMaxBytes
	logMaxBytes = n
	t.Cleanup(func() { logMaxBytes = old })
}
