package kvserver

import (
	"fmt"
	"testing"

	"yesquel/internal/kv"
)

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

// catchUp feeds dst, through ApplyMirroredBatch, every record src
// retains past dst's head, as src's mirror sender would.
func catchUp(t testing.TB, dst, src *Store) {
	t.Helper()
	for dst.ReplSeq() < src.ReplSeq() {
		from := dst.ReplSeq()
		recs, _, _, err := src.MigrationRecords(from, 0)
		if err == nil && len(recs) == 0 {
			err = fmt.Errorf("seq %d is below the retained log", from)
		}
		if err != nil {
			t.Fatal(err)
		}
		req := &kv.MirrorBatchReq{From: from, Epoch: src.Epoch()}
		for _, r := range recs {
			req.Recs = append(req.Recs, r.Rec)
		}
		if err := dst.ApplyMirroredBatch(req); err != nil {
			t.Fatal(err)
		}
	}
}
