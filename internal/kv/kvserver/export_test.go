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

// retainedRecords returns the records s retains from sequence from up
// to its head, or an error when from is outside the retained tail.
func retainedRecords(s *Store, from uint64) ([]kv.ReplRecord, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if from < s.logBase || from > s.logBase+uint64(len(s.commitLog)) {
		return nil, fmt.Errorf("seq %d is outside the retained log [%d, %d)", from, s.logBase, s.logBase+uint64(len(s.commitLog)))
	}
	return append([]kv.ReplRecord(nil), s.commitLog[from-s.logBase:]...), nil
}

// catchUp feeds dst, through ApplyMirroredBatch, every record src
// retains past dst's head, in batches as src's mirror sender would.
func catchUp(t testing.TB, dst, src *Store) {
	t.Helper()
	for dst.ReplSeq() < src.ReplSeq() {
		from := dst.ReplSeq()
		recs, err := retainedRecords(src, from)
		if err != nil {
			t.Fatal(err)
		}
		recs = recs[:min(len(recs), mirrorBatchMaxRecords)]
		if err := dst.ApplyMirroredBatch(&kv.MirrorBatchReq{From: from, Epoch: src.Epoch(), Recs: recs}); err != nil {
			t.Fatal(err)
		}
	}
}
