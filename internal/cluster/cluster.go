// Package cluster starts a Yesquel storage cluster in-process: N
// logical server slots, each a single server or a replication group of
// rf members (a primary plus rf-1 synchronously mirrored backups),
// listening on loopback TCP ports. Tests, examples, and benchmarks use
// it to stand up the system the way the paper's testbed stood up N
// storage machines (see DESIGN.md, substitution 1).
package cluster

import (
	"context"
	"fmt"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// Group is one server slot's replication group: an acting primary and
// its live backups. Every group carries an epoch, and its membership is
// the group's one membership: every change (formation, promotion after
// a failure, re-formation with a fresh backup) is one Reconfigure of the
// acting primary, an epoch bump recorded in the replication stream whose
// install also leaves the primary a member sender for exactly the
// backups it lists. The epoch's primary acknowledges a commit once a
// majority of that group holds it, and serves only while a majority of
// it grants its lease. An rf=1 slot is the sole-member group its store
// was born as.
type Group struct {
	Primary *kvserver.Server
	Backups []*kvserver.Server // live backups (empty when unreplicated or after failovers)
	Addrs   []string           // replica addresses, acting primary first

	gen int // member-start generation, for unique log file names
}

// Epoch returns the group's current configuration epoch (as believed
// by the acting primary).
func (g *Group) Epoch() uint64 { return g.Primary.Store().Epoch() }

// Cluster is a set of running storage server slots.
type Cluster struct {
	// Servers holds each slot's acting primary; Addrs its address.
	Servers []*kvserver.Server
	Addrs   []string
	Groups  []*Group

	// orphans are servers deposed out of every group but deliberately
	// left running — an isolated old primary a chaos test keeps poking
	// (IsolatePrimary). Close owns their final shutdown; without this
	// list they would outlive the test (its leak check would fail).
	orphans []*kvserver.Server

	// dir is the cluster's slot directory: the route→group map
	// StartReplicated installs on every member once the groups are up,
	// and startBackup on every backup started later. It does not change
	// after formation.
	dir *kv.Directory

	cfg kvserver.Config
	rf  int
}

// listenAddr is where every member listens: an ephemeral loopback port.
// A variable only so a test can make the listen fail.
var listenAddr = "127.0.0.1:0"

// maxReplicationFactor bounds rf to something a loopback test harness
// can plausibly run; the quorum math itself has no such limit.
const maxReplicationFactor = 7

// Start launches n unreplicated storage servers on ephemeral loopback
// ports. Equivalent to StartReplicated(n, 1, cfg).
func Start(n int, cfg kvserver.Config) (*Cluster, error) {
	return StartReplicated(n, 1, cfg)
}

// StartReplicated launches n logical server slots with the given
// replication factor (1 = standalone, 2 = primary+backup pairs, 3 and
// up = quorum groups of one primary and rf-1 backups, wired together
// at startup). With rf >= 2, every commit is synchronously mirrored to
// a majority of the slot's backups before it is acknowledged, and
// clients opened with NewClient fail over across the slot's replicas.
// With rf >= 3 the slot tolerates any minority of members down — one
// dead backup neither blocks writes (the quorum watermark advances on
// the survivors) nor expires the primary's lease (a majority of grants
// still renews).
func StartReplicated(n, rf int, cfg kvserver.Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", n)
	}
	if rf < 1 || rf > maxReplicationFactor {
		return nil, fmt.Errorf("cluster: replication factor must be between 1 and %d, got %d", maxReplicationFactor, rf)
	}
	// Like every store and client, the cluster is born holding the
	// version-0 identity directory (one route per slot, Routes[i] = i);
	// members starting below install it as a no-op.
	cl := &Cluster{cfg: cfg, rf: rf, dir: kv.IdentityDirectory(n)}
	for i := 0; i < n; i++ {
		if err := cl.startGroup(i); err != nil {
			cl.Close()
			return nil, fmt.Errorf("cluster: server %d: %w", i, err)
		}
	}
	// Install it as version 1, now carrying the groups' addresses, so
	// every member and client routes by the same explicit map.
	d := cl.dir.Clone()
	d.Version = 1
	cl.installDirectory(d)
	return cl, nil
}

// startGroup launches slot i's replica group and appends it to the
// cluster: a primary and, when replicated, rf-1 fresh backups made its
// members by grow. A group that fails to start stays in cl.Groups, so
// Close stops the members it did start.
func (cl *Cluster) startGroup(i int) error {
	primary, err := cl.startMember(i, "")
	if err != nil {
		return err
	}
	g := &Group{Primary: primary, Addrs: []string{primary.Addr()}}
	cl.Groups = append(cl.Groups, g)
	if cl.rf > 1 {
		if err := cl.grow(i); err != nil {
			return err
		}
	}
	cl.Servers = append(cl.Servers, g.Primary)
	cl.Addrs = append(cl.Addrs, g.Primary.Addr())
	return nil
}

// installDirectory fills d's group address lists from the live
// topology, installs d on every member store of every group, and adopts
// it as the cluster's directory.
func (cl *Cluster) installDirectory(d *kv.Directory) {
	d.Groups = make([][]string, len(cl.Groups))
	for i, g := range cl.Groups {
		d.Groups[i] = append([]string(nil), g.Addrs...)
	}
	for gi, g := range cl.Groups {
		for _, s := range append([]*kvserver.Server{g.Primary}, g.Backups...) {
			s.Store().InstallDirectory(d, uint32(gi))
		}
	}
	cl.dir = d
}

// startMember launches one storage server for slot i. suffix
// distinguishes the member's log file within the slot ("" for the
// original primary, e.g. "b1" for the first backup generation).
func (cl *Cluster) startMember(i int, suffix string) (*kvserver.Server, error) {
	scfg := cl.cfg
	if scfg.LogPath != "" {
		// LogPath names a directory; each member logs to its own file.
		if suffix == "" {
			scfg.LogPath = fmt.Sprintf("%s/server-%d.log", cl.cfg.LogPath, i)
		} else {
			scfg.LogPath = fmt.Sprintf("%s/server-%d.%s.log", cl.cfg.LogPath, i, suffix)
		}
	}
	store, err := kvserver.OpenStore(nil, scfg)
	if err != nil {
		return nil, err
	}
	srv := kvserver.NewServer(store)
	if err := srv.Listen(listenAddr); err != nil {
		// The store's log file and flusher, and the server's sweeper,
		// are already running; nobody else will ever stop them.
		srv.Close()
		store.CloseLog()
		return nil, err
	}
	go srv.Serve()
	return srv, nil
}

// grow starts fresh, empty backups until slot i has rf-1, and makes
// them members with one Reconfigure of the acting primary: it catches
// them up — a replay of its retained log, including every past epoch
// change in stream order, or a pushed snapshot when the log no longer
// reaches them — and installs the group's live members as the next
// epoch. The mirrored RecEpoch both informs the new backups and seeds
// the primary's lease, and the install detaches the sender of every
// member it no longer lists, a killed backup's included, so the quorum
// is counted over the live group. Backups that do not become members
// are stopped.
func (cl *Cluster) grow(i int) error {
	g := cl.Groups[i]
	members := append([]string(nil), g.Addrs...)
	var fresh []*kvserver.Server
	stop := func(err error) error {
		for _, b := range fresh {
			b.Close()
			b.Store().CloseLog()
		}
		return err
	}
	for len(g.Backups)+len(fresh) < cl.rf-1 {
		b, err := cl.startBackup(i)
		if err != nil {
			return stop(err)
		}
		fresh = append(fresh, b)
		members = append(members, b.Addr())
	}
	if err := g.Primary.Reconfigure(g.Epoch()+1, members); err != nil {
		return stop(err)
	}
	g.Backups = append(g.Backups, fresh...)
	g.Addrs = members
	return nil
}

// startBackup starts a fresh, empty backup for slot i.
func (cl *Cluster) startBackup(i int) (*kvserver.Server, error) {
	g := cl.Groups[i]
	g.gen++
	backup, err := cl.startMember(i, fmt.Sprintf("b%d", g.gen))
	if err != nil {
		return nil, err
	}
	// A member started after formation needs its own copy: the
	// directory does not travel in the replication stream, and without
	// it the backup, once promoted, would serve every route.
	backup.Store().InstallDirectory(cl.dir, uint32(i))
	return backup, nil
}

// KillPrimary fails slot's primary: the server is shut down hard and
// the most-caught-up surviving backup is explicitly promoted — an
// epoch bump whose membership is the surviving group, recorded in the
// winner's replication stream. Connected clients learn the new
// configuration from the promoted member's ErrWrongEpoch redirects (or
// ack piggybacks) and fail over; every write acknowledged before the
// kill is readable after the promotion (a quorum held it, and the
// winner has the longest stream among the survivors). The promotion is
// forced: the orchestrator killed the primary itself, so fencing by
// lease expiry is unnecessary — certainty beats clocks.
func (cl *Cluster) KillPrimary(slot int) error {
	g := cl.Groups[slot]
	if len(g.Backups) == 0 {
		return fmt.Errorf("cluster: slot %d has no backup to fail over to", slot)
	}
	g.Primary.Close()
	g.Primary.Store().CloseLog()
	return cl.promote(slot, true)
}

// KillBackup hard-kills slot's backup at index i WITHOUT telling the
// primary: the next mirror batch to it fails, marking the member
// broken in the primary's pipeline, and with rf >= 3 the primary keeps
// acknowledging writes on the surviving quorum (the dead member stays
// in the epoch membership, a broken voter its sender keeps retrying).
// Restart re-forms the group to full strength with an epoch that no
// longer lists it, which stops its sender.
func (cl *Cluster) KillBackup(slot, i int) error {
	g := cl.Groups[slot]
	if i < 0 || i >= len(g.Backups) {
		return fmt.Errorf("cluster: slot %d has no backup %d", slot, i)
	}
	b := g.Backups[i]
	b.Close()
	b.Store().CloseLog()
	g.Backups = append(g.Backups[:i], g.Backups[i+1:]...)
	for j, a := range g.Addrs {
		if a == b.Addr() {
			g.Addrs = append(g.Addrs[:j], g.Addrs[j+1:]...)
			break
		}
	}
	return nil
}

// IsolatePrimary simulates a network partition around slot's primary:
// its outbound replication (mirror batches, heartbeats included) is
// suppressed, but the process stays up and keeps answering clients on
// its side of the "partition". A backup is then promoted WITHOUT force
// — the promotion first freezes every surviving member's grant clock
// and waits out the leases they granted, so by the time the new epoch
// acknowledges its first write the stale primary's quorum lease has
// provably expired (a majority of its grants are gone) and it can no
// longer acknowledge anything. It returns the isolated old primary so
// chaos tests can keep poking it.
func (cl *Cluster) IsolatePrimary(slot int) (*kvserver.Server, error) {
	g := cl.Groups[slot]
	if len(g.Backups) == 0 {
		return nil, fmt.Errorf("cluster: slot %d has no backup to fail over to", slot)
	}
	old := g.Primary
	old.Isolate()
	if err := cl.promote(slot, false); err != nil {
		return nil, err
	}
	// The deposed primary is out of the group but still running by
	// design; Close shuts it down when the harness is torn down.
	cl.orphans = append(cl.orphans, old)
	return old, nil
}

// promote fails slot over to the most-caught-up surviving backup.
//
// Order matters. Every live backup is frozen FIRST (BeginPromotion:
// it stops granting or re-arming leases and stops accepting stream
// records), so the stream heads being compared cannot move and the old
// primary cannot keep its quorum lease alive through a member that was
// not yet frozen. Only then — after waiting out the granted leases,
// unless force says the old primary is known dead — are the heads
// compared and the longest stream promoted. Because acknowledged
// records reached a majority of the group and every backup holds a
// prefix of the old primary's stream, the longest surviving prefix
// contains every acknowledged write; promoting anything less would
// silently drop acknowledged data.
//
// The losers ADOPT the new epoch out of band before the winner installs
// it (not merely abandon their frozen promotion state: a loser left at
// the old epoch would keep accepting the deposed primary's heartbeats
// and hold its quorum lease alive — split-brain by politeness). The
// winner's Reconfigure then finds them listed with no sender and
// attaches them as voters after the install, its senders filling the
// gap between their heads and its own; one that cannot be reached stays
// a listed voter that its sender retries.
func (cl *Cluster) promote(slot int, force bool) error {
	g := cl.Groups[slot]
	live := g.Backups
	if len(live) == 0 {
		return fmt.Errorf("cluster: slot %d has no live backup to promote", slot)
	}
	for _, b := range live {
		b.Store().BeginPromotion()
	}
	if !force {
		for _, b := range live {
			for {
				wait := time.Until(b.Store().GrantExpiry())
				if wait <= 0 {
					break
				}
				time.Sleep(wait)
			}
		}
	}
	win := 0
	for i, b := range live {
		if b.Store().ReplSeq() > live[win].Store().ReplSeq() {
			win = i
		}
	}
	winner := live[win]
	newEpoch := uint64(0)
	for _, b := range live {
		if e := b.Store().Epoch(); e > newEpoch {
			newEpoch = e
		}
	}
	newEpoch++
	members := []string{winner.Addr()}
	var losers []*kvserver.Server
	for i, b := range live {
		if i != win {
			members = append(members, b.Addr())
			losers = append(losers, b)
		}
	}
	for _, b := range losers {
		b.Store().AdoptEpoch(newEpoch, members)
	}
	if err := winner.Reconfigure(newEpoch, members); err != nil {
		return fmt.Errorf("cluster: promoting slot %d: %w", slot, err)
	}
	g.Primary, g.Backups, g.Addrs = winner, losers, members
	cl.Servers[slot] = winner
	cl.Addrs[slot] = winner.Addr()
	return nil
}

// Restart re-forms slot's replication group back to full strength
// after failures (see grow).
func (cl *Cluster) Restart(slot int) error {
	g := cl.Groups[slot]
	if len(g.Backups) >= cl.rf-1 {
		return fmt.Errorf("cluster: slot %d already has %d backups", slot, len(g.Backups))
	}
	if err := cl.grow(slot); err != nil {
		return fmt.Errorf("cluster: re-forming slot %d: %w", slot, err)
	}
	return nil
}

// NewClient opens a kv client connected to every server slot, with
// failover across each slot's replicas, and has it fetch the cluster's
// slot directory (best-effort: the client is born with the identity
// map over the same groups, which routes alike).
func (cl *Cluster) NewClient() (*kvclient.Client, error) {
	groups := make([][]string, len(cl.Groups))
	for i, g := range cl.Groups {
		groups[i] = append([]string(nil), g.Addrs...)
	}
	c, err := kvclient.OpenReplicated(groups)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_ = c.FetchDirectory(ctx, 0)
	cancel()
	return c, nil
}

// Close shuts all servers down (flushing their logs, if any),
// including deposed primaries left running by IsolatePrimary.
func (cl *Cluster) Close() {
	for _, g := range cl.Groups {
		servers := append([]*kvserver.Server{g.Primary}, g.Backups...)
		for _, s := range servers {
			if s != nil {
				s.Close()
				s.Store().CloseLog()
			}
		}
	}
	for _, s := range cl.orphans {
		s.Close()
		s.Store().CloseLog()
	}
	cl.orphans = nil
}

// Stats aggregates the acting primaries' counters across slots. Only
// primaries serve clients, so Reads counts every read the cluster
// answered.
func (cl *Cluster) Stats() kvserver.StatsSnapshot {
	var out kvserver.StatsSnapshot
	for _, s := range cl.Servers {
		st := s.Store().Stats()
		out.Reads += st.Reads
		out.ReadWaits += st.ReadWaits
		out.Prepares += st.Prepares
		out.Commits += st.Commits
		out.FastCommits += st.FastCommits
		out.Aborts += st.Aborts
		out.OrphanAborts += st.OrphanAborts
		out.Conflicts += st.Conflicts
		out.GCVersions += st.GCVersions
		out.EpochBumps += st.EpochBumps
		out.WrongEpochRejects += st.WrongEpochRejects
		out.WrongSlotRejects += st.WrongSlotRejects
		out.Checkpoints += st.Checkpoints
		out.CheckpointFailures += st.CheckpointFailures
		out.LogRecordsTruncated += st.LogRecordsTruncated
		out.SnapshotsServed += st.SnapshotsServed
		out.SnapshotsInstalled += st.SnapshotsInstalled
		out.MirrorBatches += st.MirrorBatches
		out.MirrorBatchRecords += st.MirrorBatchRecords
		out.WALSyncs += st.WALSyncs
		out.WALFailures += st.WALFailures
	}
	return out
}

// GroupStats reports each slot's acting primary view: epoch, role,
// membership, lease validity, per-member replication progress, and
// counters (operator inspection).
func (cl *Cluster) GroupStats() []kvserver.ServerStats {
	out := make([]kvserver.ServerStats, len(cl.Servers))
	for i, s := range cl.Servers {
		out[i] = s.Stats()
	}
	return out
}
