package cluster_test

// Live slot-migration drills: the headline elastic-sharding demo (a
// server joins mid-run, the rebalancer moves routes onto it, and
// throughput steps UP while every acknowledged write survives) and the
// chaos variant that kills the source primary in the middle of a
// migration. The pinned guarantees:
//
//   - Scale-out is live: AddServer + Rebalance run under sustained
//     load with zero non-redirect client errors — wrong-slot redirects
//     are absorbed by the client's retry/re-route machinery, never
//     surfaced.
//   - Zero acked-write loss across a migration, and across a source
//     primary failover DURING a migration (the orchestrator only
//     consumes durable records, which promotion retains).
//   - A migrated route ends wholly on exactly one group: the new owner
//     serves it, the old owner rejects it with the typed redirect, and
//     the owning group's replicas agree on the digest.
//   - Post-join steady-state throughput exceeds the before-join
//     steady state (the point of scaling out).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
)

// ackedSample is the newest acknowledged write to one object: worker w
// acked the value fmt.Sprintf("w%d-%d", w, seq). Workers write disjoint
// object sets sequentially, so the newest ack per object is totally
// ordered and the store must hold that write or a later one by the
// same worker (later = a commit whose ack raced the load shutdown, or
// an allowed-uncertain commit that in fact landed).
type ackedSample struct {
	w, seq int
}

// scaleOutLoad runs put-heavy workers against cl until stop closes,
// spreading single-op transactions across nroutes placement slots.
// Commit errors matching allowErr are counted; any other error fails
// the test. Every acknowledged write is recorded (newest per object)
// for loss checking.
type scaleOutLoad struct {
	ops     atomic.Uint64
	allowed atomic.Uint64

	mu    sync.Mutex
	acked map[kv.OID]ackedSample

	stop chan struct{}
	wg   sync.WaitGroup
}

func startScaleOutLoad(t *testing.T, cl *cluster.Cluster, workers, nroutes int, allowErr func(error) bool) *scaleOutLoad {
	t.Helper()
	l := &scaleOutLoad{stop: make(chan struct{}), acked: make(map[kv.OID]ackedSample)}
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		l.wg.Add(1)
		go func(w int) {
			defer l.wg.Done()
			c, err := cl.NewClient()
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer c.Close()
			// A bounded working set (reused OIDs, version chains capped
			// by MaxVersions) keeps the store's size and GC pressure
			// flat, so the before/after measurement windows compare
			// steady states rather than points on a growth curve.
			oids := make([]kv.OID, nroutes*8)
			for k := range oids {
				oids[k] = c.NewOID(uint16(k % nroutes))
			}
			mine := make(map[kv.OID]ackedSample, len(oids))
			defer func() {
				l.mu.Lock()
				for oid, s := range mine {
					l.acked[oid] = s
				}
				l.mu.Unlock()
			}()
			for i := 0; ; i++ {
				select {
				case <-l.stop:
					return
				default:
				}
				oid := oids[(w+i)%len(oids)]
				tx := c.Begin()
				tx.Put(oid, kv.NewPlain([]byte(fmt.Sprintf("w%d-%d", w, i))))
				err := tx.Commit(ctx)
				switch {
				case err == nil:
					l.ops.Add(1)
					mine[oid] = ackedSample{w, i}
				case allowErr != nil && allowErr(err):
					l.allowed.Add(1)
				default:
					t.Errorf("worker %d op %d: non-redirect client error: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	return l
}

func (l *scaleOutLoad) finish() map[kv.OID]ackedSample {
	close(l.stop)
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// verifyAckedWrites reads every object's newest acknowledged write
// through a fresh client and fails the test for each one lost. The
// stored value must be the acked write or a later one by the same
// worker; anything older (or missing) is an acknowledged write that
// vanished.
func verifyAckedWrites(t *testing.T, cl *cluster.Cluster, acked map[kv.OID]ackedSample) {
	t.Helper()
	ctx := context.Background()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := c.Begin()
	defer check.Abort()
	lost := 0
	for oid, want := range acked {
		v, err := check.Read(ctx, oid)
		var gw, gi int
		ok := err == nil && v != nil
		if ok {
			n, _ := fmt.Sscanf(string(v.Data), "w%d-%d", &gw, &gi)
			ok = n == 2 && gw == want.w && gi >= want.seq
		}
		if !ok {
			lost++
			t.Errorf("acknowledged write %v=w%d-%d lost: have %v (err %v)", oid, want.w, want.seq, v, err)
			if lost > 5 {
				t.Fatal("... giving up")
			}
		}
	}
}

// TestScaleOutLive is the elastic-sharding acceptance demo: an
// elastically formed cluster (more routes than groups) runs a sustained
// write workload, a fresh server group joins mid-run, the rebalancer
// migrates routes onto it live, and steady-state throughput afterwards
// beats the steady state before — with zero non-redirect client errors
// and zero acked-write loss. The migration protocol's own cutover
// digest check runs inside Rebalance: a source/destination mismatch
// fails the move, so a nil error also pins "digests agree at cutover".
func TestScaleOutLive(t *testing.T) {
	if testing.Short() {
		t.Skip("long migration drill (-short)")
	}
	// 2 groups serving 6 routes; the joining third group's fair share
	// is 2 routes, so Rebalance moves two and the route map becomes
	// balanced 2/2/2.
	//
	// MirrorSendDelay makes each group's replication pipeline a
	// bounded-capacity resource (8 records / 2ms = 4k commits/s per
	// group) so that ADDING A GROUP ADDS CAPACITY even on a one-core
	// host, where a purely in-memory pipeline would measure CPU — a
	// resource a new group cannot increase. 32 workers keep the
	// offered load above the post-join capacity, so both windows
	// measure capacity, and the step-up is the new group's. Under the
	// race detector per-op CPU cost grows several-fold, so the delay
	// widens to keep the pipeline (not the CPU) the binding resource.
	delay := 2 * time.Millisecond
	if raceDetector {
		delay = 8 * time.Millisecond
	}
	cl, err := cluster.StartElastic(2, 3, 2, kvserver.Config{
		MaxVersions:           4,
		MirrorBatchMaxRecords: 8,
		MirrorSendDelay:       delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const nroutes = 6

	load := startScaleOutLoad(t, cl, 32, nroutes, nil)

	// Steady state before the join.
	time.Sleep(300 * time.Millisecond) // warmup
	const window = 600 * time.Millisecond
	b0 := load.ops.Load()
	time.Sleep(window)
	before := load.ops.Load() - b0

	// A server joins mid-run and takes its share of the keyspace.
	joinStart := time.Now()
	gi, err := cl.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	m0 := load.ops.Load()
	moved, err := cl.Rebalance(gi)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	migDur := time.Since(joinStart)
	during := load.ops.Load() - m0
	if moved != 2 {
		t.Fatalf("Rebalance moved %d routes, want 2", moved)
	}

	// Steady state after the join.
	a0 := load.ops.Load()
	f0 := make([]uint64, len(cl.Servers))
	for i, s := range cl.Servers {
		f0[i] = s.Store().Stats().FastCommits
	}
	time.Sleep(window)
	after := load.ops.Load() - a0
	perServer := make([]uint64, len(cl.Servers))
	for i, s := range cl.Servers {
		perServer[i] = s.Store().Stats().FastCommits - f0[i]
	}
	t.Logf("after-window fast commits per server: %v", perServer)

	acked := load.finish()
	t.Logf("ops/window: before=%d during-join=%d (join+migrations took %v) after=%d; %d acked writes sampled",
		before, during, migDur, after, len(acked))

	if after <= before {
		t.Errorf("throughput did not step up after scale-out: before=%d after=%d ops/%v", before, after, window)
	}

	// The directory now spreads the routes 2/2/2 and the moved routes
	// answer from the new group; the old owners redirect.
	d := cl.Directory()
	ownedByNew := 0
	for route, g := range d.Routes {
		if int(g) == gi {
			ownedByNew++
			// New owner accepts the route; every other group rejects it.
			oid := kv.MakeOID(uint16(route), 1)
			if err := cl.Groups[gi].Primary.Store().CheckClientSlot(oid); err != nil {
				t.Errorf("new owner rejects migrated route %d: %v", route, err)
			}
			for og := range cl.Groups {
				if og == gi {
					continue
				}
				if err := cl.Groups[og].Primary.Store().CheckClientSlot(oid); !errors.Is(err, kv.ErrWrongSlot) {
					t.Errorf("group %d still accepts migrated route %d: %v", og, route, err)
				}
			}
		}
	}
	if ownedByNew != 2 {
		t.Fatalf("new group owns %d routes, want 2 (directory %+v)", ownedByNew, d.Routes)
	}

	verifyAckedWrites(t, cl, acked)

	if s := cl.Stats(); s.MigratedVersions == 0 {
		t.Error("no migrated versions counted across the cluster")
	}
}

// TestScaleOutRF1 is the paper's own topology — unreplicated servers,
// default configuration — scaling out under load: every store retains
// its stream tail, so a lone rf=1 server can be a migration source (its
// capture is consistent with a stream position, and the tail after it
// is served from the retained records). As in TestScaleOutLive, the
// cutover digest check runs inside Rebalance, so its nil error pins
// "source and destination SlotDigests agree at cutover".
func TestScaleOutRF1(t *testing.T) {
	cl, err := cluster.StartElastic(2, 2, 1, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const nroutes = 4

	load := startScaleOutLoad(t, cl, 4, nroutes, nil)
	waitOps := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for start := load.ops.Load(); load.ops.Load() < start+n; {
			if time.Now().After(deadline) {
				t.Fatalf("load stalled: %d ops", load.ops.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitOps(200)
	gi, err := cl.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := cl.Rebalance(gi)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if moved != 1 {
		t.Fatalf("Rebalance moved %d routes, want 1 (4 routes over 3 groups)", moved)
	}
	waitOps(200) // writes keep landing, now through the new directory
	acked := load.finish()

	for route, g := range cl.Directory().Routes {
		oid := kv.MakeOID(uint16(route), 1)
		for og := range cl.Groups {
			err := cl.Groups[og].Primary.Store().CheckClientSlot(oid)
			if owner := og == int(g); owner && err != nil {
				t.Errorf("group %d rejects its own route %d: %v", og, route, err)
			} else if !owner && !errors.Is(err, kv.ErrWrongSlot) {
				t.Errorf("group %d accepts route %d owned by group %d: %v", og, route, g, err)
			}
		}
	}
	verifyAckedWrites(t, cl, acked)
	if s := cl.Stats(); s.MigratedVersions == 0 {
		t.Error("no migrated versions counted across the cluster")
	}
}

// TestMigrationChaosKillSourcePrimary kills the SOURCE group's primary
// at the protocol's most delicate point — right after the fence went
// up, before the final tail — while client load continues. The fence
// was installed on every source member, so the promoted backup keeps
// it; the orchestrator resumes (or restarts bulk) against the promoted
// primary; and the drill pins that the route ends wholly on exactly
// one group, with the owning group's replicas in digest agreement and
// zero acked-write loss.
func TestMigrationChaosKillSourcePrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("long migration chaos drill (-short)")
	}
	cl, err := cluster.StartElastic(2, 2, 2, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const nroutes = 4

	var killedGroup atomic.Int64
	killedGroup.Store(-1)
	cl.TestHookMigration = func(phase string) {
		if phase != "fenced" || killedGroup.Load() >= 0 {
			return
		}
		// The source group is the one whose members carry the fence —
		// a directory version newer than the cluster's published one.
		published := cl.Directory().Version
		for gi, g := range cl.Groups {
			if g.Primary.Store().DirVersion() > published {
				killedGroup.Store(int64(gi))
				if err := cl.KillPrimary(gi); err != nil {
					t.Errorf("killing source primary of group %d: %v", gi, err)
				}
				return
			}
		}
		t.Error("fenced hook fired but no group carries the fence")
	}

	// Failover makes some in-flight commits genuinely uncertain; that
	// is the one loss of information the system is allowed.
	load := startScaleOutLoad(t, cl, 8, nroutes, func(err error) bool {
		return errors.Is(err, kv.ErrUncertain)
	})
	time.Sleep(200 * time.Millisecond)

	gi, err := cl.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := cl.Rebalance(gi)
	if err != nil {
		t.Fatalf("Rebalance across source failover: %v", err)
	}
	if moved != 1 {
		t.Fatalf("Rebalance moved %d routes, want 1", moved)
	}
	if killedGroup.Load() < 0 {
		t.Fatal("drill never killed the source primary")
	}

	acked := load.finish()
	t.Logf("killed source group %d's primary; %d acked writes sampled, %d uncertain",
		killedGroup.Load(), len(acked), load.allowed.Load())

	// The moved route lives wholly on the new group: its directory
	// names exactly one owner, the owner serves it, everyone else
	// redirects.
	d := cl.Directory()
	var movedRoutes []int
	for route, g := range d.Routes {
		if int(g) == gi {
			movedRoutes = append(movedRoutes, route)
		}
	}
	if len(movedRoutes) != 1 {
		t.Fatalf("new group owns routes %v, want exactly one (directory %+v)", movedRoutes, d.Routes)
	}
	route := movedRoutes[0]
	probe := kv.MakeOID(uint16(route), 1)
	if err := cl.Groups[gi].Primary.Store().CheckClientSlot(probe); err != nil {
		t.Errorf("new owner rejects migrated route %d: %v", route, err)
	}
	for og := range cl.Groups {
		if og == gi {
			continue
		}
		if err := cl.Groups[og].Primary.Store().CheckClientSlot(probe); !errors.Is(err, kv.ErrWrongSlot) {
			t.Errorf("group %d still accepts migrated route %d: %v", og, route, err)
		}
	}

	verifyAckedWrites(t, cl, acked)

	// The owning group's replicas agree on the migrated route's state.
	// One quiescent write makes sure the mirror pipeline has flushed.
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx := c.Begin()
	tx.Put(c.NewOID(uint16(route)), kv.NewPlain([]byte("quiesce")))
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := cl.Groups[gi]
	for bi, b := range g.Backups {
		if b == nil {
			continue
		}
		pd := g.Primary.Store().SlotDigest(uint32(route), nroutes)
		bd := b.Store().SlotDigest(uint32(route), nroutes)
		if pd != bd {
			t.Errorf("owner group replica %d digest %016x != primary %016x on route %d", bi, bd, pd, route)
		}
	}
}
