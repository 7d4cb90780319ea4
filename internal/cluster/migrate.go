package cluster

// Slot migration and the directory.
//
// The cluster is the directory authority: it owns the versioned
// slot→group map (kv.Directory), installs every new version on every
// member store, and runs the live-migration protocol that makes a new
// version true. A route moves from group S to group D in seven steps:
//
//  1. BULK — capture the route's objects on S's primary at stream head
//     H0 (kvserver.CaptureRoute), wait H0's durability, and ingest the
//     capture on D's primary, which re-emits every version through its
//     own replication stream so D's backups converge too.
//  2. TAIL — repeatedly pull S's retained log from H0 forward
//     (MigrationRecords), filter each record to the route, wait the
//     batch durable on S, and apply: commits ingest directly, prepares
//     park in a pending map, decisions resolve parked prepares. Writes
//     continue on S throughout.
//  3. FENCE — install the new directory (version+1, route→D) on every
//     member of S. The install takes S's stream lock, and the write
//     paths re-check ownership under that lock immediately before
//     emitting, so the fence is a single point in S's stream: every
//     route-touching record is either wholly below it (the tail will
//     deliver it) or rejected with kv.WrongSlotError (provably not
//     executed, client re-routes). The only route records above the
//     fence are phase-two decisions for prepares replicated below it.
//  4. DRAIN — wait until S holds no in-flight prepared transaction on
//     the route. No new one can appear (the fence rejects them), so
//     the wait terminates and, once it does, S's stream holds no
//     further route-touching records, ever.
//  5. FINAL TAIL — sample S's head H1, wait it durable, pull the tail
//     to H1. D now holds every durable route-touching record S ever
//     acknowledged; anything S accepted but never made durable is
//     exactly what a failover would have discarded anyway.
//  6. DIGEST — compare SlotDigest(route) on S and D (newest version of
//     every route object). A mismatch rolls the fence back (yet-newer
//     directory pointing the route at S again) and fails loudly.
//  7. PUBLISH — install the new directory on D first (so D stops
//     redirecting before anyone is told to go there), then on every
//     other group, then adopt it as the cluster's own. Clients learn it
//     from Ack.DirVersion piggybacks, redirects, or their heartbeat.
//
// Zero acked-write loss: every acknowledged route write either has its
// record durable below H1 (steps 1-5 deliver it to D, and ingestion is
// deduplicated by per-object newest-timestamp, so replays are
// idempotent) or was never acknowledged at all. A source-primary crash
// mid-migration is survivable for the same reason: the orchestrator
// only ever consumes durable records, which by the promotion rule
// (longest stream among a majority) every successor primary retains —
// so the tail resumes against the promoted primary, and a truncated
// log just restarts the idempotent bulk phase. Migrated data is NOT
// purged from S (follow-on work); it is unreachable there, fenced by
// the directory.

import (
	"errors"
	"fmt"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
)

// Directory returns the cluster's current slot directory.
func (cl *Cluster) Directory() *kv.Directory { return cl.dir }

// StartElastic launches a cluster built for scale-out: `groups` replica
// groups of the given replication factor, serving groups*routesPerGroup
// directory routes (Routes[r] = r % groups). With more routes than
// groups, every group starts with several routes, so a freshly joined
// group (AddServer + Rebalance) has over-share donors to take routes
// from — the configuration in which adding a machine genuinely adds
// serving capacity.
//
// Placement parity: because groups divides the route count,
// (slot % routes) % groups == slot % groups, so a client still on the
// identity directory it was born with routes every OID to the same
// group the published directory names — until the first migration.
// Clients should adopt the published directory before allocating OIDs
// (NumServers is the route count, not the group count);
// Cluster.NewClient does so eagerly.
func StartElastic(groups, routesPerGroup, rf int, cfg kvserver.Config) (*Cluster, error) {
	if routesPerGroup < 1 {
		return nil, fmt.Errorf("cluster: need at least one route per group, got %d", routesPerGroup)
	}
	cl, err := StartReplicated(groups, rf, cfg)
	if err != nil {
		return nil, err
	}
	if routesPerGroup > 1 {
		d := cl.dir.Clone()
		d.Version++
		d.Routes = make([]uint32, groups*routesPerGroup)
		for r := range d.Routes {
			d.Routes[r] = uint32(r % groups)
		}
		cl.installDirectory(d, -1)
	}
	return cl, nil
}

// installDirectory refreshes d's advisory group address lists from the
// live topology, installs d on every member store of every group —
// firstGroup's members first, when >= 0 (migration publishes to the
// destination before anyone is redirected there) — and adopts it as the
// cluster's directory.
func (cl *Cluster) installDirectory(d *kv.Directory, firstGroup int) {
	d.Groups = make([][]string, len(cl.Groups))
	for i, g := range cl.Groups {
		d.Groups[i] = append([]string(nil), g.Addrs...)
	}
	install := func(gi int) {
		g := cl.Groups[gi]
		for _, s := range append([]*kvserver.Server{g.Primary}, g.Backups...) {
			if s != nil {
				s.Store().InstallDirectory(d, uint32(gi))
			}
		}
	}
	if firstGroup >= 0 && firstGroup < len(cl.Groups) {
		install(firstGroup)
	}
	for gi := range cl.Groups {
		if gi != firstGroup {
			install(gi)
		}
	}
	cl.dir = d
}

// AddServer starts a fresh replica group (same replication factor and
// config as the original slots), appends it to the cluster, and
// publishes a new directory version naming it. The new group owns no
// routes until Rebalance (or migrateSlot) moves some onto it; until
// then it only rejects with redirects. Returns the new group's index.
func (cl *Cluster) AddServer() (int, error) {
	gi := len(cl.Groups)
	g, err := cl.startGroup(gi)
	if err != nil {
		return 0, fmt.Errorf("cluster: adding server group %d: %w", gi, err)
	}
	cl.Groups = append(cl.Groups, g)
	cl.Servers = append(cl.Servers, g.Primary)
	cl.Addrs = append(cl.Addrs, g.Primary.Addr())
	d := cl.dir.Clone()
	d.Version++
	cl.installDirectory(d, gi)
	return gi, nil
}

// Rebalance moves routes onto group `to` until it owns its fair share
// (len(Routes)/len(Groups), at least one), choosing each time the
// most-loaded route — by the owning primaries' per-route operation
// counters — among groups that own more than their share. Returns how
// many routes moved. Typical use: AddServer, then Rebalance(newGroup)
// to shift the hottest part of the keyspace onto the fresh machine
// while the cluster keeps serving.
func (cl *Cluster) Rebalance(to int) (int, error) {
	if to < 0 || to >= len(cl.Groups) {
		return 0, fmt.Errorf("cluster: no group %d to rebalance onto", to)
	}
	d := cl.dir
	share := len(d.Routes) / len(cl.Groups)
	if share < 1 {
		share = 1
	}
	owned := make([]int, len(cl.Groups))
	for _, g := range d.Routes {
		owned[g]++
	}
	loads := make([][]uint64, len(cl.Groups))
	for gi, g := range cl.Groups {
		loads[gi] = g.Primary.Store().RouteLoad()
	}
	moved := 0
	for owned[to] < share {
		// Hottest route among over-share donors.
		best, bestLoad := -1, uint64(0)
		for r, g := range d.Routes {
			if int(g) == to || owned[g] <= share {
				continue
			}
			var load uint64
			if int(g) < len(loads) && r < len(loads[g]) {
				load = loads[g][r]
			}
			if best < 0 || load > bestLoad {
				best, bestLoad = r, load
			}
		}
		if best < 0 {
			break
		}
		from := int(d.Routes[best])
		if err := cl.migrateSlot(uint32(best), to); err != nil {
			return moved, fmt.Errorf("cluster: migrating route %d from group %d to %d: %w", best, from, to, err)
		}
		owned[from]--
		owned[to]++
		moved++
		d = cl.dir // migrateSlot published a new version
	}
	return moved, nil
}

// migHook fires the migration test hook, if any.
func (cl *Cluster) migHook(phase string) {
	if cl.TestHookMigration != nil {
		cl.TestHookMigration(phase)
	}
}

// Migration tuning knobs. The tail is considered caught up when it is
// within tailCutoverLag records of the source head — then the fence
// goes up and the remainder is drained synchronously.
const (
	tailBatch       = 512
	tailCutoverLag  = 64
	migrateAttempts = 5
	drainTimeout    = 30 * time.Second
)

// pendingTx is a replicated-but-undecided prepare touching the
// migrating route: its ops wait for the decision record in the tail.
type pendingTx struct {
	ops []*kv.Op
}

// routeOps filters ops to the writes addressing the migrating route. A
// prepare's compare ops were checked on the source; the destination
// gets what they guarded, not the checks.
func routeOps(ops []*kv.Op, route, nroutes uint32) []*kv.Op {
	var out []*kv.Op
	for _, op := range ops {
		if !op.Kind.IsCompare() && uint32(op.OID.Slot())%nroutes == route {
			out = append(out, op)
		}
	}
	return out
}

// migrateSlot moves one directory route from its current owner to
// group `to` with the live protocol documented at the top of this
// file. Errors before the fence leave routing untouched; a digest
// mismatch after the fence rolls the route back to the source.
func (cl *Cluster) migrateSlot(route uint32, to int) error {
	from := int(cl.dir.Routes[route])
	if from == to {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < migrateAttempts; attempt++ {
		if err := cl.tryMigrateSlot(route, from, to); err != nil {
			if errors.Is(err, errMigrationRestart) {
				lastErr = err
				continue // source failed over or truncated: bulk restart is idempotent
			}
			return err
		}
		return nil
	}
	return fmt.Errorf("cluster: migration of route %d gave up after %d attempts: %w", route, migrateAttempts, lastErr)
}

// errMigrationRestart says the pre-fence phases must restart from a
// fresh bulk capture (safe: ingestion is idempotent).
var errMigrationRestart = errors.New("cluster: migration restart")

func (cl *Cluster) tryMigrateSlot(route uint32, from, to int) error {
	nroutes := uint32(len(cl.dir.Routes))
	dstStore := cl.Groups[to].Primary.Store()
	srcStore := func() *kvserver.Store { return cl.Groups[from].Primary.Store() }

	// BULK: capture at the source's durable head, ingest on the
	// destination, seed the pending-prepare map.
	src := srcStore()
	enc, head, err := src.CaptureRoute(route, nroutes)
	if err != nil {
		return err
	}
	if err := src.WaitSeqDurable(head); err != nil {
		return fmt.Errorf("%w: waiting capture durability: %v", errMigrationRestart, err)
	}
	cursor, preps, err := dstStore.IngestMigratedObjects(enc)
	if err != nil {
		return err
	}
	pending := make(map[uint64]pendingTx)
	for _, p := range preps {
		if ops := routeOps(p.Ops, route, nroutes); len(ops) > 0 {
			pending[p.TxID] = pendingTx{ops: ops}
		}
	}
	cl.migHook("bulk-done")

	// TAIL: stream the live delta until within striking distance.
	for {
		head, err := cl.pullTail(route, nroutes, from, dstStore, &cursor, pending)
		if err != nil {
			return err
		}
		if head-cursor <= tailCutoverLag {
			break
		}
	}

	// FENCE: new version, route repointed, installed on every SOURCE
	// member. From this instant the source rejects new route writes
	// with the typed redirect.
	newDir := cl.dir.Clone()
	newDir.Version++
	newDir.Routes[route] = uint32(to)
	fence := newDir.Clone()
	fence.Groups = make([][]string, len(cl.Groups))
	for i, g := range cl.Groups {
		fence.Groups[i] = append([]string(nil), g.Addrs...)
	}
	g := cl.Groups[from]
	for _, s := range append([]*kvserver.Server{g.Primary}, g.Backups...) {
		if s != nil {
			s.Store().InstallDirectory(fence, uint32(from))
		}
	}
	cl.migHook("fenced")

	// DRAIN: in-flight prepares on the route resolve (their phase-two
	// decisions are exempt from the fence); no new ones can start.
	deadline := time.Now().Add(drainTimeout)
	for srcStore().HasPreparedOnRoute(route, nroutes) {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: route %d drain timed out on group %d", route, from)
		}
		time.Sleep(time.Millisecond)
	}
	cl.migHook("drained")

	// FINAL TAIL: everything below the post-drain head, durably.
	for {
		head, err := cl.pullTail(route, nroutes, from, dstStore, &cursor, pending)
		if err != nil {
			return err
		}
		if cursor >= head {
			break
		}
	}

	// DIGEST: source and destination must agree on the route's current
	// state before anyone is told the destination owns it.
	sd := srcStore().SlotDigest(route, nroutes)
	dd := dstStore.SlotDigest(route, nroutes)
	if sd != dd {
		rollback := fence.Clone()
		rollback.Version++
		rollback.Routes[route] = uint32(from)
		cl.installDirectory(rollback, from)
		return fmt.Errorf("cluster: route %d digest mismatch at cutover (src %016x dst %016x); fence rolled back", route, sd, dd)
	}
	cl.migHook("cutover")

	// PUBLISH: destination group first, then everyone.
	cl.installDirectory(newDir, to)
	return nil
}

// pullTail pulls one batch of the source group's replication log at
// *cursor, waits it durable on the source, applies the route-relevant
// records to the destination, and advances the cursor. Returns the
// source head observed with the batch. A truncated log (cursor below
// the retained base) or a source failover surfaces errMigrationRestart.
func (cl *Cluster) pullTail(route, nroutes uint32, from int, dstStore *kvserver.Store, cursor *uint64, pending map[uint64]pendingTx) (uint64, error) {
	src := cl.Groups[from].Primary.Store()
	recs, head, base, err := src.MigrationRecords(*cursor, tailBatch)
	if err != nil {
		return 0, fmt.Errorf("%w: pulling tail at %d: %v", errMigrationRestart, *cursor, err)
	}
	if len(recs) == 0 {
		if *cursor < base {
			return 0, fmt.Errorf("%w: tail cursor %d truncated (base %d)", errMigrationRestart, *cursor, base)
		}
		return head, nil
	}
	// Only durable records may cross: a source failover can retract
	// nothing below the watermark, so nothing the destination ingests
	// can ever be un-written on the source side.
	last := recs[len(recs)-1].Seq
	if err := src.WaitSeqDurable(last + 1); err != nil {
		return 0, fmt.Errorf("%w: waiting tail durability at %d: %v", errMigrationRestart, last, err)
	}
	// Route-relevant commits are collected in stream order and ingested
	// as ONE batch per pull: the destination waits durability once per
	// batch, so the tail drains at batch granularity instead of paying a
	// destination-group round trip per record — without that, a tail
	// racing a saturating workload never converges.
	batch := make([]kvserver.MigCommit, 0, len(recs))
	for _, sr := range recs {
		rec := sr.Rec
		switch rec.Kind {
		case kv.RecCommit:
			if ops := routeOps(rec.Ops, route, nroutes); len(ops) > 0 {
				batch = append(batch, kvserver.MigCommit{TS: rec.TS, Ops: ops})
			}
		case kv.RecPrepare:
			if ops := routeOps(rec.Ops, route, nroutes); len(ops) > 0 {
				pending[rec.TxID] = pendingTx{ops: ops}
			}
		case kv.RecDecide:
			p, ok := pending[rec.TxID]
			if !ok {
				break
			}
			delete(pending, rec.TxID)
			if rec.Commit {
				batch = append(batch, kvserver.MigCommit{TS: rec.TS, Ops: p.ops})
			}
		case kv.RecEpoch:
			// Membership changes are the source group's business.
		}
	}
	if err := dstStore.IngestMigratedCommits(batch); err != nil {
		return 0, err
	}
	*cursor = last + 1
	return head, nil
}
