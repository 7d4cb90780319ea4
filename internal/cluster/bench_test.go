package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/ycsb"
)

// Benches of the replicated write path, failover and backup resync,
// each against an in-process cluster it starts and closes itself.
//
//	go test ./internal/cluster -run '^$' -bench . -benchtime 1x

// replWorkload drives `writers` concurrent clients against a 1-slot
// cluster with the given replication factor for the given duration and
// reports aggregate ops, the process's CPU time over the load (client,
// servers and transport, all in this process) and the slot's primary
// counters. It is the
// harness behind BenchmarkReplicationConcurrent: single-writer numbers hide the
// write path's serialization entirely (one synchronous client observes
// the same latency either way), so the concurrent variant is the one
// that shows whether group commit is amortizing mirror round trips and
// fsyncs — and, at rf=3, what the quorum fan-out costs over the pair.
func replWorkload(tb testing.TB, writers, rf int, scfg kvserver.Config, d time.Duration) (ops int, cpu time.Duration, st kvserver.StatsSnapshot) {
	cl, err := cluster.StartReplicated(1, rf, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	var total atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	deadline := time.Now().Add(d)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClient()
			if err != nil {
				tb.Errorf("worker %d: %v", w, err)
				return
			}
			defer c.Close()
			n := int64(0)
			for time.Now().Before(deadline) {
				tx := c.Begin()
				tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("w%d-%d", w, n))))
				if err := tx.Commit(ctx); err != nil {
					tb.Errorf("worker %d: %v", w, err)
					return
				}
				n++
			}
			total.Add(n)
		}(w)
	}
	wg.Wait()
	return int(total.Load()), cpuTime() - cpu0, cl.Stats()
}

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replReadResult summarizes one read-mostly replication workload run.
type replReadResult struct {
	readsPerSec   float64
	p50, p95, p99 time.Duration
}

// replReadWorkload drives `workers` concurrent clients running a YCSB
// read-mostly mix (B = 95/5 read/update, C = read-only) against a
// 1-slot cluster at the given replication factor; every read goes to
// the primary. Reports read ops/sec over the measured window and read
// latency percentiles.
func replReadWorkload(tb testing.TB, workers, rf int, wl ycsb.Workload, d time.Duration) replReadResult {
	cl, err := cluster.StartReplicated(1, rf, kvserver.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Seed the keyspace before the run starts.
	const records = 256
	seed, err := cl.NewClient()
	if err != nil {
		tb.Fatal(err)
	}
	defer seed.Close()
	oids := make([]kv.OID, records)
	for i := range oids {
		oids[i] = seed.NewOID(0)
	}
	for i := 0; i < records; i += 32 {
		tx := seed.Begin()
		for j := i; j < i+32 && j < records; j++ {
			tx.Put(oids[j], kv.NewPlain(ycsb.Value(int64(j))))
		}
		if err := tx.Commit(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	var reads atomic.Int64
	var wg sync.WaitGroup
	latCh := make(chan []time.Duration, workers)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClient()
			if err != nil {
				tb.Errorf("worker %d: %v", w, err)
				return
			}
			defer c.Close()
			gen, err := ycsb.NewGenerator(wl, records, int64(w)+1)
			if err != nil {
				tb.Errorf("worker %d: %v", w, err)
				return
			}
			var lats []time.Duration
			for time.Now().Before(deadline) {
				op := gen.Next()
				oid := oids[int(op.Key%records)]
				if op.Kind == ycsb.OpRead || op.Kind == ycsb.OpScan {
					t0 := time.Now()
					if _, err := c.Begin().Read(ctx, oid); err != nil {
						tb.Errorf("worker %d: read: %v", w, err)
						return
					}
					lats = append(lats, time.Since(t0))
					continue
				}
				tx := c.Begin()
				tx.Put(oid, kv.NewPlain(ycsb.Value(op.Key)))
				// Zipfian hot keys under first-committer-wins: losing a
				// race is part of the workload, not a harness failure.
				if err := tx.Commit(ctx); err != nil && !errors.Is(err, kv.ErrConflict) && !errors.Is(err, kv.ErrUncertain) {
					tb.Errorf("worker %d: commit: %v", w, err)
					return
				}
			}
			reads.Add(int64(len(lats)))
			latCh <- lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(latCh)
	var all []time.Duration
	for l := range latCh {
		all = append(all, l...)
	}
	if len(all) == 0 {
		tb.Fatal("no read completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	at := func(p int) time.Duration { return all[(len(all)-1)*p/100] }
	return replReadResult{
		readsPerSec: float64(reads.Load()) / elapsed.Seconds(),
		p50:         at(50),
		p95:         at(95),
		p99:         at(99),
	}
}

// BenchmarkReplicationConcurrent measures the replicated write path
// under concurrency, which a single writer's per-commit latency cannot
// show. Sub-benchmarks cover 1 and 8 writers at rf=1, 2 and 3, plain
// and with a per-commit-durable WAL (-log-sync equivalent); reported
// metrics are ops/sec, the CPU time of the whole process per commit,
// achieved mirror batch depth, and fsyncs per commit (group commit
// drives the latter below 1 under load).
func BenchmarkReplicationConcurrent(b *testing.B) {
	run := func(b *testing.B, writers, rf int, logSync bool) {
		// One fixed-duration workload per iteration; each iteration
		// gets a FRESH log directory — sharing one would make later
		// iterations replay (and inherit) earlier iterations' WALs,
		// counting replay time as write-path throughput.
		for i := 0; i < b.N; i++ {
			scfg := kvserver.Config{}
			if logSync {
				scfg.LogPath = b.TempDir()
				scfg.LogSync = true
			}
			start := time.Now()
			ops, cpu, st := replWorkload(b, writers, rf, scfg, 500*time.Millisecond)
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(ops)/elapsed, "ops/s")
			if ops > 0 {
				b.ReportMetric(float64(cpu.Microseconds())/float64(ops), "cpu-µs/commit")
			}
			if st.MirrorBatches > 0 {
				b.ReportMetric(float64(st.MirrorBatchRecords)/float64(st.MirrorBatches), "batch-depth")
			}
			if commits := st.Commits + st.FastCommits; logSync && commits > 0 {
				b.ReportMetric(float64(st.WALSyncs)/float64(commits), "fsync/commit")
			}
		}
	}
	for _, rf := range []int{1, 2, 3} {
		for _, logSync := range []bool{false, true} {
			for _, w := range []int{1, 8} {
				rf, logSync, w := rf, logSync, w
				name := fmt.Sprintf("rf=%d/writers=%d", rf, w)
				if logSync {
					name = fmt.Sprintf("rf=%d/logsync/writers=%d", rf, w)
				}
				b.Run(name, func(b *testing.B) { run(b, w, rf, logSync) })
			}
		}
	}
	// Read-mostly (YCSB-B, 95/5) at rf=3; reported latencies are
	// per-read (begin→value).
	b.Run("rf=3/readmostly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := replReadWorkload(b, 8, 3, ycsb.WorkloadB, 500*time.Millisecond)
			b.ReportMetric(res.readsPerSec, "read-ops/s")
			b.ReportMetric(float64(res.p50.Microseconds()), "p50-µs")
			b.ReportMetric(float64(res.p95.Microseconds()), "p95-µs")
			b.ReportMetric(float64(res.p99.Microseconds()), "p99-µs")
		}
	})
}

// BenchmarkFailover measures availability through a failover: the wall
// time from killing a replicated slot's primary until the first write
// acknowledged under the new epoch (kill → forced promotion → client
// redirect → acked commit). Reported as ms/failover. Each iteration
// re-forms the pair (Restart) outside the timed section.
func BenchmarkFailover(b *testing.B) {
	cl, err := cluster.StartReplicated(1, 2, kvserver.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	c, err := cl.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Seed one write so the pair has history.
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("seed")))
	if err := tx.Commit(ctx); err != nil {
		b.Fatal(err)
	}

	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := cl.KillPrimary(0); err != nil {
			b.Fatal(err)
		}
		// First acked write on the new epoch: retry until the redirect
		// lands it (uncertain one-shots are abandoned, as an application
		// would).
		for {
			tx := c.Begin()
			tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("fo-%d", i))))
			err := tx.Commit(ctx)
			if err == nil {
				break
			}
			if !errors.Is(err, kv.ErrUncertain) {
				b.Fatalf("write after failover: %v", err)
			}
		}
		total += time.Since(start)
		b.StopTimer()
		if err := cl.Restart(0); err != nil {
			b.Fatal(err)
		}
		// Heartbeat ping outside the timed section: an idle client
		// learns the re-formed membership from the ack piggyback (an
		// active client would learn it from its next redirect), so the
		// next iteration's kill finds the client knowing both members.
		if err := c.Ping(ctx, 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(total.Seconds()*1e3/float64(b.N), "ms/failover")
}

// BenchmarkResync measures backup catch-up: the wall time from
// attaching a fresh, empty backup until it holds the primary's full
// state, under two log policies. "full-replay" keeps the unbounded
// replication log, so the backup replays every record since the
// beginning of time; "snapshot" truncates the log at checkpoints, so
// the backup installs a pushed snapshot plus the retained tail. With MVCC history (most records superseding earlier versions)
// the snapshot path ships the current state, not the write history —
// the gap widens with the primary's age.
func BenchmarkResync(b *testing.B) {
	const history = 2000
	run := func(b *testing.B, cfg kvserver.Config) {
		primary := kvserver.NewServer(kvserver.NewStore(nil, cfg))
		if err := primary.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		go primary.Serve()
		defer primary.Close()
		c, err := kvclient.Open([]string{primary.Addr()})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		// A hot-key history: most records are superseded versions, the
		// shape that separates state size from history length.
		oids := make([]kv.OID, 64)
		for i := range oids {
			oids[i] = c.NewOID(0)
		}
		for i := 0; i < history; i++ {
			tx := c.Begin()
			tx.Put(oids[i%len(oids)], kv.NewPlain([]byte(fmt.Sprintf("v%d", i))))
			if err := tx.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
		want := primary.Store().StateDigest()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			backup := kvserver.NewServer(kvserver.NewStore(nil, kvserver.Config{}))
			if err := backup.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			go backup.Serve()
			// When the log no longer reaches the empty backup, its
			// sender pushes a snapshot, then sends the tail.
			if err := primary.Reconfigure(primary.Store().Epoch()+1, []string{primary.Addr(), backup.Addr()}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := backup.Store().StateDigest(); got != want {
				b.Fatalf("resynced digest %x != primary %x", got, want)
			}
			if err := primary.Reconfigure(primary.Store().Epoch()+1, []string{primary.Addr()}); err != nil {
				b.Fatal(err)
			}
			backup.Close()
			b.StartTimer()
		}
	}
	b.Run("full-replay", func(b *testing.B) { run(b, kvserver.Config{}) })
	b.Run("snapshot", func(b *testing.B) {
		run(b, kvserver.Config{ReplicationLogMaxRecords: 128})
	})
}
