// Package yesquel_test wires the paper-reproduction experiments E1–E8
// (internal/bench, DESIGN.md experiment index) into `go test -bench`.
// Each benchmark runs the corresponding experiment once per b.N with
// scaled-down parameters and reports ops/sec for its headline metric;
// the full parameter sweeps with paper-style tables come from
// `go run ./cmd/ybench`.
package yesquel_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/bench"
	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/ycsb"
)

// benchParams keeps -bench wall time reasonable while preserving each
// experiment's shape. ybench uses bigger defaults.
func benchParams() bench.Params {
	return bench.Params{
		Duration: 500 * time.Millisecond,
		Records:  2000,
		Workers:  8,
		Servers:  []int{1, 2, 4},
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	var exp bench.Experiment
	for _, e := range bench.All() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(ctx, benchParams())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			fmt.Println(table.Render())
		}
	}
}

// BenchmarkE1_DBTMicro regenerates E1 (YDBT operation microbenchmark:
// per-op latency on one server).
func BenchmarkE1_DBTMicro(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2_DBTScalability regenerates E2 (aggregate DBT throughput
// as servers are added).
func BenchmarkE2_DBTScalability(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE3_YCSB regenerates E3 (YCSB A–F, Yesquel vs the NOSQL
// comparator).
func BenchmarkE3_YCSB(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkE4_Wikipedia regenerates E4 (Wikipedia application, Yesquel
// vs the centralized SQL comparator).
func BenchmarkE4_Wikipedia(b *testing.B) { runExperiment(b, "e4") }

// BenchmarkE5_Ablation regenerates E5 (YDBT optimizations disabled one
// at a time).
func BenchmarkE5_Ablation(b *testing.B) { runExperiment(b, "e5") }

// BenchmarkE6_CommitLatency regenerates E6 (commit latency vs number of
// 2PC participants).
func BenchmarkE6_CommitLatency(b *testing.B) { runExperiment(b, "e6") }

// BenchmarkE7_Scans regenerates E7 (scan throughput vs the naive DBT).
func BenchmarkE7_Scans(b *testing.B) { runExperiment(b, "e7") }

// BenchmarkE8_SQLMicro regenerates E8 (per-statement SQL latency).
func BenchmarkE8_SQLMicro(b *testing.B) { runExperiment(b, "e8") }

// BenchmarkE9_Replication regenerates E9 (replicated vs plain writes).
func BenchmarkE9_Replication(b *testing.B) { runExperiment(b, "e9") }

// replWorkload drives `writers` concurrent clients against a 1-slot
// cluster with the given replication factor for the given duration and
// reports aggregate ops plus the slot's primary counters. It is the
// harness behind BenchmarkReplicationConcurrent: single-writer numbers hide the
// write path's serialization entirely (one synchronous client observes
// the same latency either way), so the concurrent variant is the one
// that shows whether group commit is amortizing mirror round trips and
// fsyncs — and, at rf=3, what the quorum fan-out costs over the pair.
func replWorkload(tb testing.TB, writers, rf int, scfg kvserver.Config, d time.Duration) (ops int, st kvserver.StatsSnapshot) {
	cl, err := cluster.StartReplicated(1, rf, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	var total atomic.Int64
	var wg sync.WaitGroup
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
	return int(total.Load()), cl.Stats()
}

// scaleOutResult summarizes the elastic scale-out run: ops counted in
// fixed windows before and after a mid-run server join, ops during the
// join itself, and commit latency percentiles during the join — what
// the live migration costs the workload while it runs.
type scaleOutResult struct {
	before, during, after int
	windowSecs            float64
	joinSecs              float64
	durP50, durP99        time.Duration
}

// scaleOutWorkload is the bench-artifact version of the elastic
// scale-out demo (internal/cluster TestScaleOutLive): a 2-group
// cluster formed with 6 routes runs a sustained put workload, a third
// group joins mid-run, and Rebalance migrates its fair share (two
// routes) onto it live. MirrorSendDelay makes each group's replication
// pipeline a bounded-capacity resource so the windows measure CAPACITY
// — which the join grows — rather than host CPU, which it cannot.
func scaleOutWorkload(tb testing.TB, window time.Duration) scaleOutResult {
	const nroutes = 6
	const workers = 32
	cl, err := cluster.StartElastic(2, 3, 2, kvserver.Config{
		MaxVersions:           4,
		MirrorBatchMaxRecords: 8,
		MirrorSendDelay:       2 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	stop := make(chan struct{})
	var opsN atomic.Int64
	var recording atomic.Bool
	var latMu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
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
			// Bounded working set: reused OIDs keep the store's size flat
			// so the windows compare steady states.
			oids := make([]kv.OID, nroutes*8)
			for k := range oids {
				oids[k] = c.NewOID(uint16(k % nroutes))
			}
			var myLats []time.Duration
			defer func() {
				latMu.Lock()
				lats = append(lats, myLats...)
				latMu.Unlock()
			}()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := c.Begin()
				tx.Put(oids[(w+i)%len(oids)], kv.NewPlain([]byte(fmt.Sprintf("w%d-%d", w, i))))
				t0 := time.Now()
				if err := tx.Commit(ctx); err != nil {
					tb.Errorf("worker %d: %v", w, err)
					return
				}
				if recording.Load() {
					myLats = append(myLats, time.Since(t0))
				}
				opsN.Add(1)
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond) // warmup
	res := scaleOutResult{windowSecs: window.Seconds()}
	b0 := opsN.Load()
	time.Sleep(window)
	res.before = int(opsN.Load() - b0)
	recording.Store(true)
	joinStart := time.Now()
	gi, err := cl.AddServer()
	if err != nil {
		tb.Fatal(err)
	}
	m0 := opsN.Load()
	if _, err := cl.Rebalance(gi); err != nil {
		tb.Fatal(err)
	}
	res.during = int(opsN.Load() - m0)
	res.joinSecs = time.Since(joinStart).Seconds()
	recording.Store(false)
	a0 := opsN.Load()
	time.Sleep(window)
	res.after = int(opsN.Load() - a0)
	close(stop)
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.durP50 = latPercentile(lats, 50)
	res.durP99 = latPercentile(lats, 99)
	return res
}

// replReadResult summarizes one read-mostly replication workload run.
type replReadResult struct {
	reads, writes int
	readsPerSec   float64
	p50, p95, p99 time.Duration
	st            kvserver.StatsSnapshot
}

// latPercentile picks the p-th percentile (0..100) from a sorted
// latency sample, nearest-rank on the sample index.
func latPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// replReadWorkload drives `workers` concurrent clients running a YCSB
// read-mostly mix (B = 95/5 read/update, C = read-only) against a
// 1-slot cluster at the given replication factor. With followerReads
// set, read transactions begin at the client's learned durability
// frontier (BeginFollower) and route to backups, so the group's read
// capacity is every replica; without it, every read goes to the
// primary. Workers ping once before the run so even the read-only
// WorkloadC clients learn a frontier from the heartbeat ack piggyback
// before their first read. Reports read/write counts, read ops/sec
// over the measured window, read latency percentiles, and the slot's
// aggregated server counters (FollowerReads shows where reads landed).
func replReadWorkload(tb testing.TB, workers, rf int, wl ycsb.Workload, followerReads bool, d time.Duration) replReadResult {
	// Follower reads run at the durability frontier, which trails the
	// newest commits; a hot zipfian key takes enough updates per
	// second that the default 64-version chain cap would prune the
	// version a frontier read needs. Deepen the cap so the retention
	// window, not the chain length, bounds readable staleness.
	cl, err := cluster.StartReplicated(1, rf, kvserver.Config{MaxVersions: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Seed the keyspace; replicate it fully before the run starts so
	// every backup can serve any key at the frontier.
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
	if followerReads {
		// Wait until a backup actually SERVES a follower read of the
		// last seeded object: a successful read alone isn't enough
		// (the client falls back to the primary transparently while
		// the backups' remote watermark — carried by mirror batches
		// and lease renewals — still trails the seeding). Once the
		// FollowerReads counter moves, the backups' own frontiers
		// cover the full seed, so the workers start against a group
		// whose every replica can serve every key.
		seed.SetFollowerReads(true)
		for wait := time.Now().Add(10 * time.Second); ; {
			if err := seed.Ping(ctx, 0); err != nil {
				tb.Fatal(err)
			}
			if seed.FollowerSnapshot() > 0 {
				tx := seed.BeginFollower()
				if _, err := tx.Read(ctx, oids[records-1]); err != nil && !errors.Is(err, kv.ErrNotFound) {
					tb.Fatal(err)
				}
				if cl.Stats().FollowerReads > 0 {
					break
				}
			}
			if time.Now().After(wait) {
				tb.Fatal("backups never served a follower read of the seed writes")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var reads, writes atomic.Int64
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
			c.SetFollowerReads(followerReads)
			// Learn the slot's durability frontier before the first
			// read (the ping ack piggybacks it), then keep it fresh
			// with the heartbeat: the follower snapshot must advance
			// through the run or reads pin to an ever-staler
			// timestamp and eventually fall out of the hot keys'
			// retained version history.
			if err := c.Ping(ctx, 0); err != nil {
				tb.Errorf("worker %d: ping: %v", w, err)
				return
			}
			c.StartHeartbeat(50 * time.Millisecond)
			gen, err := ycsb.NewGenerator(wl, records, int64(w)+1)
			if err != nil {
				tb.Errorf("worker %d: %v", w, err)
				return
			}
			var lats []time.Duration
			nr, nw := int64(0), int64(0)
			for time.Now().Before(deadline) {
				op := gen.Next()
				oid := oids[int(op.Key%records)]
				if op.Kind == ycsb.OpRead || op.Kind == ycsb.OpScan {
					t0 := time.Now()
					var tx *kvclient.Tx
					if followerReads {
						tx = c.BeginFollower()
					} else {
						tx = c.Begin()
					}
					if _, err := tx.Read(ctx, oid); err != nil {
						tb.Errorf("worker %d: read: %v", w, err)
						return
					}
					lats = append(lats, time.Since(t0))
					nr++
				} else {
					tx := c.Begin()
					tx.Put(oid, kv.NewPlain(ycsb.Value(op.Key)))
					switch err := tx.Commit(ctx); {
					case err == nil:
						nw++
					case errors.Is(err, kv.ErrConflict) || errors.Is(err, kv.ErrUncertain):
						// Zipfian hot keys under first-committer-wins:
						// losing a race is part of the workload, not a
						// harness failure.
					default:
						tb.Errorf("worker %d: commit: %v", w, err)
						return
					}
				}
			}
			reads.Add(nr)
			writes.Add(nw)
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
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return replReadResult{
		reads:       int(reads.Load()),
		writes:      int(writes.Load()),
		readsPerSec: float64(reads.Load()) / elapsed.Seconds(),
		p50:         latPercentile(all, 50),
		p95:         latPercentile(all, 95),
		p99:         latPercentile(all, 99),
		st:          cl.Stats(),
	}
}

// BenchmarkReplicationConcurrent measures the replicated write path
// under concurrency — the workload BenchmarkE9_Replication's
// per-commit latency view cannot show. Sub-benchmarks cover 1 and 8
// writers, plain and with a per-commit-durable WAL (-log-sync
// equivalent); reported metrics are ops/sec, achieved mirror batch
// depth, and fsyncs per commit (group commit drives the latter below
// 1 under load).
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
			ops, st := replWorkload(b, writers, rf, scfg, 500*time.Millisecond)
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(ops)/elapsed, "ops/s")
			if st.MirrorBatches > 0 {
				b.ReportMetric(float64(st.MirrorBatchRecords)/float64(st.MirrorBatches), "batch-depth")
			}
			if commits := st.Commits + st.FastCommits; logSync && commits > 0 {
				b.ReportMetric(float64(st.WALSyncs)/float64(commits), "fsync/commit")
			}
		}
	}
	for _, rf := range []int{2, 3} {
		for _, w := range []int{1, 8} {
			b.Run(fmt.Sprintf("rf=%d/writers=%d", rf, w), func(b *testing.B) { run(b, w, rf, false) })
		}
		for _, w := range []int{1, 8} {
			b.Run(fmt.Sprintf("rf=%d/logsync/writers=%d", rf, w), func(b *testing.B) { run(b, w, rf, true) })
		}
	}
	// Read-mostly (YCSB-B, 95/5) at rf=3: primary-only vs
	// watermark-gated follower reads. The follower variant's reads
	// fan out across all three replicas at the durability frontier;
	// reported latencies are per-read (begin→value).
	for _, fr := range []bool{false, true} {
		fr := fr
		b.Run(fmt.Sprintf("rf=3/readmostly/follower=%v", fr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := replReadWorkload(b, 8, 3, ycsb.WorkloadB, fr, 500*time.Millisecond)
				b.ReportMetric(res.readsPerSec, "read-ops/s")
				b.ReportMetric(float64(res.p50.Microseconds()), "p50-µs")
				b.ReportMetric(float64(res.p95.Microseconds()), "p95-µs")
				b.ReportMetric(float64(res.p99.Microseconds()), "p99-µs")
				if fr && res.st.FollowerReads == 0 {
					b.Fatalf("follower reads enabled but none served (frontier never learned?)")
				}
			}
		})
	}
}

// BenchmarkFailover measures availability through a failover: the wall
// time from killing a replicated slot's primary until the first write
// acknowledged under the new epoch (kill → forced promotion → client
// redirect → acked commit). Reported as ms/failover; this is the first
// trajectory point for the availability metric. Each iteration
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
	if b.N > 0 {
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/failover")
	}
}

// BenchmarkResync measures backup catch-up: the wall time from
// attaching a fresh, empty backup until it holds the primary's full
// state, under two log policies. "full-replay" keeps the unbounded
// replication log, so the backup replays every record since the
// beginning of time; "snapshot" truncates the log at checkpoints, so
// the backup installs a state-transfer snapshot plus the retained
// tail. With MVCC history (most records superseding earlier versions)
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
			backup.Store().StartResync()
			watermark, err := primary.AttachBackupMember(backup.Addr())
			if err != nil {
				b.Fatal(err)
			}
			if err := backup.SyncFrom(primary.Addr(), watermark); err != nil {
				b.Fatal(err)
			}
			// The epoch bump that admits the synced member completes
			// the join.
			if _, err := primary.BumpEpoch([]string{primary.Addr(), backup.Addr()}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := backup.Store().StateDigest(); got != want {
				b.Fatalf("resynced digest %x != primary %x", got, want)
			}
			primary.DetachAllBackups()
			if _, err := primary.BumpEpoch([]string{primary.Addr()}); err != nil {
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
