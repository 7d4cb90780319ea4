package kvserver

// Layer benches for the commit path of one store: what one member of a
// group pays per commit, and per policy checkpoint. CI runs each once
// (-benchtime 1x) so they cannot rot; quote them with -benchtime Nx
// -count M when a change claims to move them.

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"yesquel/internal/kv"
)

// benchStore opens a store, with a write-ahead log (no fsync) when wal
// is set, holding n testLeaf objects.
func benchStore(b *testing.B, wal bool, cfg Config, n int) (*Store, []kv.OID) {
	b.Helper()
	if wal {
		cfg.LogPath = filepath.Join(b.TempDir(), "store.log")
	}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.CloseLog() })
	return s, putLeaves(b, s, n)
}

// BenchmarkFastCommitLeaf64 is a one-row UPDATE as the store sees it: a
// one-shot transaction replacing one cell of a 64-cell leaf.
func BenchmarkFastCommitLeaf64(b *testing.B) {
	for _, wal := range []bool{false, true} {
		name := "memory"
		if wal {
			name = "wal"
		}
		b.Run(name, func(b *testing.B) {
			s, oids := benchStore(b, wal, Config{}, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oids[0], i, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareCommitLeaf64 is the same update as one participant of
// a two-phase commit: prepare (its record in the stream), then commit.
func BenchmarkPrepareCommitLeaf64(b *testing.B) {
	s, oids := benchStore(b, false, Config{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txid := newTxID()
		ts, err := s.Prepare(txid, s.Clock().Now(), updateCell(oids[0], i, i))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Commit(txid, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyCheckpoint is one policy checkpoint — capture under
// the stream lock, then encode and rotate the log off it — over a state
// of N leaves with full 64-version chains, each version a 64-cell leaf.
// Beside ns/op it reports the time and the peak heap growth per MiB of
// encoded state, which is what says whether a checkpoint's memory
// follows the state or a chunk of it.
func BenchmarkPolicyCheckpoint(b *testing.B) {
	const leaves, versions = 16, 64
	s, oids := benchStore(b, true, Config{MaxVersions: versions}, leaves)
	for v := 1; v < versions; v++ {
		for i, oid := range oids {
			if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oid, v+i, v)); err != nil {
				b.Fatal(err)
			}
		}
	}
	stateMiB := float64(leaves*versions*(testLeaf().EncodedSize()+32)) / (1 << 20)

	var peak uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s.ckptBusy.Load() {
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		base := m.HeapAlloc
		b.StartTimer()

		s.repMu.Lock()
		_, err := s.checkpointLocked(true)
		s.repMu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		for s.ckptBusy.Load() {
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > base && m.HeapAlloc-base > peak {
				peak = m.HeapAlloc - base
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.StopTimer()
	if n := s.Stats().CheckpointFailures; n != 0 {
		b.Fatalf("%d checkpoints failed", n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/stateMiB, "ns/MiB-state")
	b.ReportMetric(float64(peak)/stateMiB, "peak-B/MiB-state")
}
