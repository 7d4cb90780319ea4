// Package kvclient is the client library of Yesquel's transactional
// key-value storage system (the "client lib" box in Figure 1 of the
// paper). It connects to the storage servers, places objects by the
// server slot embedded in their OIDs, and runs transactions under
// snapshot isolation: buffered writes, first-committer-wins conflict
// detection, one-round-trip fast commit for single-participant
// transactions, and two-phase commit otherwise.
package kvclient

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/rpc"
)

// Client is a connection to a set of storage servers. It is safe for
// concurrent use; transactions created from it are not (a transaction
// belongs to one goroutine, as in the paper's per-client query
// processor).
type Client struct {
	// mu guards groups growth, the adopted slot directory, and the
	// teardown/fetch bookkeeping below. groups is append-only — a
	// *replicaGroup, once created, is stable for the client's lifetime —
	// so holding mu only for the slice access (never across an RPC) is
	// enough. Lock order: mu before any replicaGroup.mu.
	mu     sync.Mutex
	groups []*replicaGroup
	// dir is the adopted slot directory, born as the version-0 identity
	// map over the groups the client was opened with. Replaced
	// wholesale on adoption, never mutated in place; version-gated so
	// the view only moves forward. Learned from Ack.DirVersion
	// piggybacks (async fetch) and WrongSlotError redirects (in-place
	// route patch plus a refresh).
	dir         *kv.Directory
	dirFetching bool
	dirWG       sync.WaitGroup
	closed      bool

	hlc *clock.HLC

	nextTx  atomic.Uint64
	nextOID atomic.Uint64

	// followerReads routes snapshot reads whose timestamp lies at or
	// below a group's learned durability frontier to that group's
	// backups, round-robin — read throughput scales with the
	// replication factor instead of pinning every read on the primary.
	// See SetFollowerReads.
	followerReads atomic.Bool

	// hbStop terminates the membership heartbeat goroutine (see
	// StartHeartbeat); hbMu guards restarts.
	hbMu   sync.Mutex
	hbStop chan struct{}
}

// SetFollowerReads toggles routing of frontier-covered snapshot reads
// to backup replicas. Safe to flip at any time; in-flight reads finish
// on the path they started.
func (c *Client) SetFollowerReads(on bool) { c.followerReads.Store(on) }

// replicaGroup is one server slot's replica set: the membership the
// client currently believes (acting primary first), the group's epoch,
// and the connection in use. On a transport failure the group rotates
// to the next replica; on an ErrWrongEpoch redirect it adopts the
// carried epoch and membership, so a client opened before a failover
// or re-formation follows the group to addresses it was never
// configured with.
type replicaGroup struct {
	mu       sync.Mutex
	addrs    []string
	epoch    uint64 // group epoch last learned (0 = not yet learned)
	cur      int    // index into addrs the connection (or next dial) uses
	conn     *rpc.Client
	connAddr string // address conn was dialed to
	// closed marks the client torn down: no further dials. Without it,
	// a heartbeat ping racing Close could re-dial after the teardown
	// and leak the fresh connection.
	closed bool

	// Follower-read state: the highest durability frontier any ack from
	// this group has piggybacked (monotone — the frontier only ever
	// covers quorum-durable prefixes, which every successor epoch
	// preserves), the backup this client's reads are pinned to, and
	// one rpc.Client per backup (the primary's, above, stays reserved
	// for writes and fallback). Reads stick to one backup and rotate
	// only on failure: clients spread across backups via the
	// process-wide seed, while each individual client keeps one
	// backup's connection pool warm — as many connections as it has
	// reads in flight at once, not one.
	frontier  uint64
	readCur   int
	readConns map[string]*rpc.Client

	// readFrontier is the highest durability frontier a BACKUP of this
	// group has reported on a read response. The primary-fresh frontier
	// above always runs slightly ahead of the backups' watermark copies
	// (the copy rides the NEXT mirror batch), so a transaction
	// snapshotted at it arrives early and parks in the backup's
	// patience wait. Snapshotting at what a backup has actually
	// reported keeps steady-state follower reads wait-free; it is just
	// as monotone-safe, being the same quorum-durable bound one hop
	// later.
	readFrontier uint64
}

// readSeed staggers which backup each successive client pins its
// reads to, so a process full of follower-reading clients spreads
// load across the group instead of piling onto backup #1.
var readSeed atomic.Uint64

// noteFrontier adopts a durability frontier learned from an ack.
func (g *replicaGroup) noteFrontier(f clock.Timestamp) {
	g.mu.Lock()
	if uint64(f) > g.frontier {
		g.frontier = uint64(f)
	}
	g.mu.Unlock()
}

// frontierNow returns the highest durability frontier learned so far.
func (g *replicaGroup) frontierNow() clock.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	return clock.Timestamp(g.frontier)
}

// noteReadFrontier adopts a durability frontier a backup reported on a
// read response.
func (g *replicaGroup) noteReadFrontier(f clock.Timestamp) {
	g.mu.Lock()
	if uint64(f) > g.readFrontier {
		g.readFrontier = uint64(f)
	}
	g.mu.Unlock()
}

// followerSnapNow returns the snapshot BeginFollower should use for
// this group: the backup-reported frontier once one is known (reads at
// it are served without waiting), otherwise the primary-fresh one.
func (g *replicaGroup) followerSnapNow() clock.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.readFrontier > 0 {
		return clock.Timestamp(g.readFrontier)
	}
	return clock.Timestamp(g.frontier)
}

// routeFrontierNow returns the highest snapshot worth routing to a
// backup: the freshest durability frontier learned from either side.
func (g *replicaGroup) routeFrontierNow() clock.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.readFrontier > g.frontier {
		return clock.Timestamp(g.readFrontier)
	}
	return clock.Timestamp(g.frontier)
}

// followerConn returns a connection to this client's pinned backup
// (addrs[0] is the believed primary and is skipped), dialing on
// demand; an undialable backup rotates the pin to the next one. ok is
// false when the group has no reachable backup.
func (g *replicaGroup) followerConn() (conn *rpc.Client, addr string, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || len(g.addrs) < 2 {
		return nil, "", false
	}
	n := len(g.addrs) - 1
	for i := 0; i < n; i++ {
		idx := 1 + (g.readCur+i)%n
		a := g.addrs[idx]
		c := g.readConns[a]
		if c == nil {
			dialed, err := rpc.DialTimeout(a, dialTimeout)
			if err != nil {
				continue
			}
			if g.readConns == nil {
				g.readConns = make(map[string]*rpc.Client)
			}
			g.readConns[a] = dialed
			c = dialed
		}
		g.readCur = (g.readCur + i) % n
		return c, a, true
	}
	return nil, "", false
}

// invalidateFollower drops a failed backup connection and rotates the
// read pin off it; the identity check keeps concurrent callers from
// closing a fresh redial.
func (g *replicaGroup) invalidateFollower(addr string, bad *rpc.Client) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.readConns[addr] == bad {
		bad.Close()
		delete(g.readConns, addr)
	}
	if n := len(g.addrs) - 1; n > 0 && g.addrs[1+g.readCur%n] == addr {
		g.readCur = (g.readCur + 1) % n
	}
}

// dialTimeout bounds each replica dial during failover: a blackholed
// primary must cost seconds, not the kernel connect timeout, before
// the group rotates to a reachable backup.
const dialTimeout = 3 * time.Second

// get returns the group's live connection, dialing replicas starting
// at the preferred one until one answers.
func (g *replicaGroup) get() (*rpc.Client, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, errors.New("kvclient: client closed")
	}
	if g.conn != nil {
		return g.conn, nil
	}
	var lastErr error
	for i := 0; i < len(g.addrs); i++ {
		idx := (g.cur + i) % len(g.addrs)
		conn, err := rpc.DialTimeout(g.addrs[idx], dialTimeout)
		if err == nil {
			g.cur, g.conn, g.connAddr = idx, conn, g.addrs[idx]
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("kvclient: no reachable replica in %v: %w", g.addrs, lastErr)
}

// size returns the current number of known replicas.
func (g *replicaGroup) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.addrs)
}

// epochNow returns the epoch requests should be stamped with.
func (g *replicaGroup) epochNow() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// noteEpoch adopts a newer configuration learned from an ack piggyback
// or a wrong-epoch redirect. It reports whether anything changed. The
// current connection is kept only if it points at the new primary;
// otherwise the group redials preferring the new members[0].
func (g *replicaGroup) noteEpoch(epoch uint64, members []string) bool {
	if len(members) == 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch <= g.epoch {
		return false
	}
	g.epoch = epoch
	g.addrs = append([]string(nil), members...)
	g.cur = 0
	if g.conn != nil && g.connAddr != members[0] {
		g.conn.Close()
		g.conn = nil
	}
	// Drop backup read connections: the membership changed, and a
	// connection to a retired member would keep bouncing reads off it.
	// (Reconfiguration is rare; redialing survivors is cheap.) The
	// learned frontier is KEPT — it covers only quorum-durable prefixes,
	// which the new epoch preserves.
	for a, rc := range g.readConns {
		rc.Close()
		delete(g.readConns, a)
	}
	g.readCur = int(readSeed.Add(1))
	return true
}

// invalidate drops a failed connection and points the group at the
// next replica. The identity check keeps concurrent callers that hit
// the same dead connection from rotating past a healthy replica.
func (g *replicaGroup) invalidate(bad *rpc.Client) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.conn == bad {
		bad.Close()
		g.conn = nil
		g.cur = (g.cur + 1) % len(g.addrs)
	}
}

func (g *replicaGroup) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	if g.conn != nil {
		g.conn.Close()
		g.conn = nil
	}
	for a, rc := range g.readConns {
		rc.Close()
		delete(g.readConns, a)
	}
}

// Open dials every storage server. The order of addrs defines server
// slots: until a published directory says otherwise, an OID with slot s
// lives on addrs[s % len(addrs)]. Each slot has a single replica; use
// OpenReplicated for failover.
func Open(addrs []string) (*Client, error) {
	groups := make([][]string, len(addrs))
	for i, a := range addrs {
		groups[i] = []string{a}
	}
	return OpenReplicated(groups)
}

// OpenReplicated dials a cluster of replicated server slots: groups[s]
// lists the replica addresses for slot s, preferred (primary) first.
// Reads and other idempotent operations transparently fail over to a
// backup when the current replica dies; commits whose acknowledgment
// is lost surface kv.ErrUncertain instead of retrying.
//
// Open also merges every server's clock into the client's before the
// first transaction: a fresh client's wall clock may trail the
// servers' hybrid logical clocks (their logical component runs ahead
// under load), and a snapshot taken below already-committed timestamps
// would silently miss that data.
func OpenReplicated(groups [][]string) (*Client, error) {
	if len(groups) == 0 {
		return nil, errors.New("kvclient: no servers")
	}
	// Born holding the identity directory: route i is group i.
	c := &Client{hlc: clock.New(), dir: kv.IdentityDirectory(len(groups))}
	c.dir.Groups = groups
	// Random bases make transaction ids and OIDs unique across client
	// processes without coordination.
	var seed [16]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("kvclient: seeding ids: %v", err)
	}
	c.nextTx.Store(binary.LittleEndian.Uint64(seed[0:8]))
	c.nextOID.Store(binary.LittleEndian.Uint64(seed[8:16]) & ((1 << 40) - 1))
	for s, addrs := range groups {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("kvclient: server slot %d has no replicas", s)
		}
		c.groups = append(c.groups, &replicaGroup{addrs: addrs, readCur: int(readSeed.Add(1))})
	}
	ctx := context.Background()
	for s := range c.groups {
		// One ping per slot merges the slot's clock and learns its
		// current epoch and membership from the ack piggyback. The ping
		// rotates across the slot's replicas, so a down replica is
		// tolerated as long as ANY member of the group answers — a
		// backup is enough (it carries the group's clock and knows the
		// configuration), even though it would reject data operations.
		if err := c.Ping(ctx, s); err != nil {
			c.Close()
			return nil, fmt.Errorf("kvclient: merging clock of server %d: %w", s, err)
		}
	}
	// A client that stays idle across an entire epoch's lifetime would
	// otherwise strand on dead addresses: ack piggybacks and redirects
	// only reach a client that is talking. The heartbeat keeps an idle
	// client's group view fresh from the same ping that seeded it —
	// but only where there is a membership to follow: single-replica
	// slots have no failover, and taxing every unreplicated client
	// with a ping-per-second-per-slot would buy nothing. (Replicas
	// learned later via piggybacks don't retrigger this; call
	// StartHeartbeat manually for that unusual topology.)
	for _, g := range c.groups {
		if g.size() > 1 {
			c.StartHeartbeat(DefaultHeartbeatInterval)
			break
		}
	}
	return c, nil
}

// DefaultHeartbeatInterval is how often an otherwise idle client pings
// each server slot to refresh its epoch and membership view (see
// StartHeartbeat).
const DefaultHeartbeatInterval = time.Second

// heartbeatTimeout bounds one heartbeat ping's RPC time. Dialing a
// blackholed replica is bounded separately by dialTimeout per replica
// (get ignores the context), so a fully dead slot's ping can take a
// few seconds — which is why the sweep pings slots concurrently: one
// dead slot must not starve the others' refresh cadence.
const heartbeatTimeout = 2 * time.Second

// StartHeartbeat (re)starts the background membership heartbeat: every
// interval, the client pings each server slot (kv.MethodPing answers
// from any replica, regardless of role), merging clocks and adopting
// the epoch and membership the ack piggybacks. An ACTIVE client learns
// configuration changes from its ordinary traffic; the heartbeat is
// for the idle one — without it, a client that sleeps through a
// failover AND the re-formation that retires the addresses it knows
// wakes up stranded, with every replica it ever heard of dead.
// OpenReplicated starts it at DefaultHeartbeatInterval; tests shorten
// it to compress failover timelines. An interval <= 0 stops the
// heartbeat without starting a new one.
func (c *Client) StartHeartbeat(interval time.Duration) {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	if c.hbStop != nil {
		close(c.hbStop)
		c.hbStop = nil
	}
	if interval <= 0 {
		return
	}
	stop := make(chan struct{})
	c.hbStop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			// One concurrent ping per multi-replica slot (single-replica
			// slots have no membership to follow): a slot whose replicas
			// are all unreachable costs its own dial timeouts, not the
			// others' freshness. The wait between ticks keeps at most
			// one sweep in flight.
			var wg sync.WaitGroup
			for s, g := range c.groupList() {
				if g.size() <= 1 {
					continue
				}
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
					c.Ping(ctx, s) // best-effort: a dead slot stays dead until it answers
					cancel()
				}(s)
			}
			wg.Wait()
		}
	}()
}

// StopHeartbeat stops the background membership heartbeat.
func (c *Client) StopHeartbeat() { c.StartHeartbeat(0) }

// Close tears down all server connections, after waiting out any
// in-flight background directory fetch.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.StopHeartbeat()
	c.dirWG.Wait()
	for _, g := range c.groupList() {
		g.close()
	}
	return nil
}

// NumServers returns the number of placement slots OIDs spread across:
// the directory's fixed route count — frozen at cluster formation,
// unchanged by scale-out — so placement computed from it (dbt root
// OIDs) stays stable when servers join.
func (c *Client) NumServers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dir.Routes)
}

// Clock exposes the client's hybrid logical clock.
func (c *Client) Clock() *clock.HLC { return c.hlc }

// ServerFor maps an OID to the index of the replica group that owns it
// under the adopted slot directory.
func (c *Client) ServerFor(oid kv.OID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.dir.GroupFor(oid))
}

// group returns the replica group at index i (stable pointer).
func (c *Client) group(i int) *replicaGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups[i]
}

// groupList snapshots the current groups for iteration.
func (c *Client) groupList() []*replicaGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*replicaGroup(nil), c.groups...)
}

// DirectoryVersion returns the adopted slot directory's version (0 =
// the identity directory the client was born with).
func (c *Client) DirectoryVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir.Version
}

// adoptDirectory installs d as the client's routing directory if it is
// newer than the adopted one, creating replica groups for any group
// index the client has not seen yet. Reports whether it was adopted.
func (c *Client) adoptDirectory(d *kv.Directory) bool {
	if d == nil || len(d.Routes) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d.Version <= c.dir.Version {
		return false
	}
	d = d.Clone()
	c.ensureGroupsLocked(d)
	c.dir = d
	return true
}

// ensureGroupsLocked grows c.groups to cover every group d names. The
// directory's address lists seed NEW groups only; a group the client
// already tracks keeps its epoch-learned membership (the directory is
// advisory about who serves a group — epoch state is authoritative).
// Caller holds c.mu.
func (c *Client) ensureGroupsLocked(d *kv.Directory) {
	for gi := len(c.groups); gi < len(d.Groups); gi++ {
		c.groups = append(c.groups, &replicaGroup{
			addrs:   append([]string(nil), d.Groups[gi]...),
			readCur: int(readSeed.Add(1)),
		})
	}
}

// FetchDirectory fetches the slot directory from server's group and
// adopts it if newer — an eager, synchronous alternative to learning it
// from ack piggybacks.
func (c *Client) FetchDirectory(ctx context.Context, server int) error {
	respB, err := c.call(ctx, server, kv.MethodDirectory, func(uint64) []byte { return nil }, retryAlways)
	if err != nil {
		return err
	}
	resp, err := kv.DecodeDirectoryResp(respB)
	if err != nil {
		return err
	}
	c.hlc.Observe(resp.Clock)
	c.adoptDirectory(resp.Dir)
	return nil
}

// fetchDirectoryAsync starts a single-flight background directory fetch
// from server's group (the one whose ack advertised a newer version).
// The goroutine is tracked so Close can wait it out.
func (c *Client) fetchDirectoryAsync(server int) {
	c.mu.Lock()
	if c.closed || c.dirFetching {
		c.mu.Unlock()
		return
	}
	c.dirFetching = true
	c.dirWG.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.dirWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
		c.FetchDirectory(ctx, server) // best-effort: the next ack re-triggers
		cancel()
		c.mu.Lock()
		c.dirFetching = false
		c.mu.Unlock()
	}()
}

// noteWrongSlot reacts to a WrongSlotError redirect from server: it
// patches the adopted directory's route in place (keeping the adopted
// version, so the follow-up full fetch — which carries the rejecting
// server's newer version — still lands), and triggers that fetch.
func (c *Client) noteWrongSlot(server int, ws *kv.WrongSlotError) {
	c.mu.Lock()
	cur := c.dir.Version
	if ws.Version > cur &&
		int(ws.Route) < len(c.dir.Routes) && c.dir.Routes[ws.Route] != ws.Group {
		d := c.dir.Clone()
		for int(ws.Group) >= len(d.Groups) {
			d.Groups = append(d.Groups, nil)
		}
		if len(ws.Members) > 0 {
			d.Groups[ws.Group] = append([]string(nil), ws.Members...)
		}
		d.Routes[ws.Route] = ws.Group
		c.ensureGroupsLocked(d)
		c.dir = d
	}
	c.mu.Unlock()
	if ws.Version > cur {
		c.fetchDirectoryAsync(server)
	}
}

// Wrong-slot redirects are transient by design: during a migration
// cutover there is a window where the source group already rejects a
// moved route and the destination has not yet installed the directory
// that says it owns it — both sides bounce. Data paths therefore retry
// redirects patiently (re-resolving placement each attempt) instead of
// surfacing them; the budget only bounds a pathological ping-pong.
const (
	wrongSlotRetries = 2000
	wrongSlotPause   = 2 * time.Millisecond
)

// retryWrongSlot reports whether err is a wrong-slot redirect the
// caller should retry (after adopting what the redirect teaches and a
// short pause). tries counts the caller's attempts so far.
func (c *Client) retryWrongSlot(ctx context.Context, server int, err error, tries int) bool {
	var ws *kv.WrongSlotError
	if !errors.As(err, &ws) {
		return false
	}
	c.noteWrongSlot(server, ws)
	if ctx.Err() != nil || tries >= wrongSlotRetries {
		return false
	}
	time.Sleep(wrongSlotPause)
	return true
}

// NewOID mints a fresh OID on server slot. Local ids combine a random
// per-client base with a counter, so distinct clients do not collide.
func (c *Client) NewOID(slot uint16) kv.OID {
	return kv.MakeOID(slot, c.nextOID.Add(1))
}

// callPolicy says how call handles a transport failure after the
// request may have reached the server.
type callPolicy int

const (
	// retryAlways: the operation is idempotent; retry on the next
	// replica regardless of whether the first attempt was delivered.
	// (A read retried on a backup while the primary is still alive is
	// refused, not served stale: an unpromoted backup answers
	// ErrWrongEpoch unless the snapshot is at or below its durability
	// frontier, and below the frontier it holds the same prepare locks
	// and enforces the same Clock-SI wait as the primary.)
	retryAlways callPolicy = iota
	// retryUnsent: retry only when the request provably never left this
	// process (rpc.ErrNotSent); a sent-but-unacknowledged attempt fails
	// with the transport error. Used for Prepare: re-preparing on a
	// backup while the primary may still hold the first vote would
	// stage the transaction on two replicas at once.
	retryUnsent
	// retryUnsentUncertain: like retryUnsent, but a sent-but-
	// unacknowledged attempt surfaces kv.ErrUncertain. Used for fast
	// commits, which may have been applied and replicated before the
	// acknowledgment was lost and are not idempotent (a one-shot
	// transaction leaves no prepared state to retry against). Phase-two
	// decisions of two-phase commit, by contrast, retry with
	// retryAlways: prepares and decisions are replicated and
	// remembered, so a duplicate is acknowledged server-side.
	retryUnsentUncertain
)

// maxEpochHops bounds how many ErrWrongEpoch redirects one call will
// follow. Each productive hop strictly increases the group's known
// epoch; the bound only guards against a pathological ping-pong.
const maxEpochHops = 4

// wrongEpochPause spaces the retries of a redirect that taught nothing
// (see call).
const wrongEpochPause = 2 * time.Millisecond

// call issues method(enc(epoch)) against server slot's current
// replica; enc re-encodes the request on every attempt so retries
// always carry the freshest known group epoch. Transport failures
// rotate the group to the next replica and retry according to policy.
// An ErrWrongEpoch rejection guarantees the operation was not
// executed, so — for every policy — the client adopts the carried
// configuration (or rotates, if it learned nothing new) and retries.
// Other application errors and context cancellation never fail over.
func (c *Client) call(ctx context.Context, server int, method string, enc func(epoch uint64) []byte, policy callPolicy) ([]byte, error) {
	g := c.group(server)
	var lastErr error
	epochHops := 0
	// One reusable timer for every wrong-epoch pause of this call.
	var pause *time.Timer
	defer func() {
		if pause != nil {
			pause.Stop()
		}
	}()
	for attempt := 0; attempt <= g.size(); attempt++ {
		conn, err := g.get()
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		resp, err := conn.Call(ctx, method, enc(g.epochNow()))
		if err == nil {
			return resp, nil
		}
		var app *rpc.AppError
		if errors.As(err, &app) {
			if ts, ok := kv.ParseClockMark(app.Msg); ok {
				// A commit-path failure that still installed state at the
				// server: merge its clock so this client's next snapshot
				// covers whatever the failed call left behind.
				c.hlc.Observe(ts)
			}
			we, ok := kv.ParseWrongEpoch(app.Msg)
			if !ok || epochHops >= maxEpochHops {
				return nil, err
			}
			epochHops++
			lastErr = err
			if g.noteEpoch(we.Epoch, we.Members) {
				// New configuration adopted: start the replica walk over
				// (the preferred member changed under us).
				attempt = -1
				continue
			}
			// Nothing new learned (a backup bounced us, or a primary
			// without a lease): try the next replica — after a pause,
			// because both are what a group looks like for the moment a
			// promotion or a fresh epoch's first lease grant is in flight,
			// and a walk that outruns it fails an operation the new
			// configuration would have served.
			g.invalidate(conn)
			if pause == nil {
				pause = time.NewTimer(wrongEpochPause)
			} else {
				pause.Reset(wrongEpochPause) // it fired and was drained below
			}
			select {
			case <-pause.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		if ctx.Err() != nil {
			return nil, err
		}
		g.invalidate(conn)
		lastErr = err
		if policy != retryAlways && !errors.Is(err, rpc.ErrNotSent) {
			if policy == retryUnsentUncertain {
				return nil, fmt.Errorf("%w: %v", kv.ErrUncertain, err)
			}
			return nil, err
		}
	}
	return nil, lastErr
}

// observeAck merges an ack's clock, configuration, durability-frontier,
// and directory-version piggybacks. A newer directory version triggers
// a background fetch of the full map — so every client touching a
// group, even only through its heartbeat ping, converges on the new
// routing without a redirect.
func (c *Client) observeAck(server int, ack *kv.Ack) {
	c.hlc.Observe(ack.Clock)
	g := c.group(server)
	g.noteEpoch(ack.Epoch, ack.Members)
	g.noteFrontier(ack.Frontier)
	if ack.DirVersion > c.DirectoryVersion() {
		c.fetchDirectoryAsync(server)
	}
}

// Ping round-trips to server slot i, merging clocks and learning the
// slot's current epoch and membership from the ack piggyback.
func (c *Client) Ping(ctx context.Context, server int) error {
	resp, err := c.call(ctx, server, kv.MethodPing, func(uint64) []byte { return nil }, retryAlways)
	if err != nil {
		return err
	}
	ack, err := kv.DecodeAck(resp)
	if err != nil {
		return err
	}
	c.observeAck(server, ack)
	return nil
}

// FollowerSnapshot returns the newest snapshot timestamp every
// replicated server slot can currently serve as a follower read: the
// minimum durability frontier learned across multi-replica groups
// (single-replica slots always serve at any snapshot and don't cap
// it). Once a group's backups have reported their own frontier on
// read responses, that bound is used — reads at it never park in a
// backup's patience wait. Zero until any frontier has been learned —
// callers fall back to a current-time snapshot then.
func (c *Client) FollowerSnapshot() clock.Timestamp {
	snap, any := clock.Timestamp(0), false
	for _, g := range c.groupList() {
		if g.size() < 2 {
			continue
		}
		f := g.followerSnapNow()
		if !any || f < snap {
			snap, any = f, true
		}
	}
	return snap
}

// BeginFollower starts a transaction at the FollowerSnapshot, so with
// follower reads enabled every read it performs can be served by a
// backup. The snapshot trails the newest commits by the watermark lag
// (bounded staleness: everything visible is quorum-durable, but this
// transaction may not see this client's own most recent writes). Use
// it for read-only work that values throughput over freshness; it
// falls back to an ordinary Begin until a frontier is known.
func (c *Client) BeginFollower() *Tx {
	if snap := c.FollowerSnapshot(); snap > 0 {
		return c.BeginAt(snap)
	}
	return c.Begin()
}

// readCall routes one snapshot read. With follower reads on and the
// snapshot at or below the group's learned durability frontier, it
// first tries this client's pinned backup — the backup's own
// CheckClientRead re-verifies the bound against ITS frontier, so a
// stale client view costs a redirect, never a stale answer. Any
// follower failure (unreachable, wrong epoch, behind) falls back to
// the ordinary primary path; epoch redirects learned on the way are
// adopted first, so the fallback already walks the fresh membership.
// viaFollower reports which side answered, so the caller can file the
// response's frontier under the right bound.
func (c *Client) readCall(ctx context.Context, server int, snap clock.Timestamp, method string, enc func(epoch uint64) []byte) (respB []byte, viaFollower bool, err error) {
	g := c.group(server)
	if c.followerReads.Load() && snap <= g.routeFrontierNow() {
		if conn, addr, ok := g.followerConn(); ok {
			resp, err := conn.Call(ctx, method, enc(g.epochNow()))
			if err == nil {
				return resp, true, nil
			}
			var app *rpc.AppError
			if errors.As(err, &app) {
				if we, ok := kv.ParseWrongEpoch(app.Msg); ok {
					g.noteEpoch(we.Epoch, we.Members)
				}
			} else if ctx.Err() == nil {
				g.invalidateFollower(addr, conn)
			}
		}
	}
	respB, err = c.call(ctx, server, method, enc, retryAlways)
	return respB, false, err
}

// readItems is the one read path: it answers items at snap into out,
// positionally (an absent object leaves Found=false, never an error),
// in as few RPCs as the data's placement allows — one per owning group,
// in parallel when there are several. A wrong-slot redirect from any
// group means the partition itself was stale, so the whole round is
// partitioned again under the directory the redirect taught and
// retried.
func (c *Client) readItems(ctx context.Context, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	if len(items) == 0 {
		return nil
	}
	for tries := 0; ; tries++ {
		server, err := c.readRound(ctx, snap, items, out)
		if err == nil || !c.retryWrongSlot(ctx, server, err, tries) {
			return err
		}
	}
}

// readRound runs one partition-and-fetch round of readItems; server is
// the group whose call produced err (for the redirect machinery). Items
// that share one group — a single item always does — go out on the
// calling goroutine with nothing built around them.
func (c *Client) readRound(ctx context.Context, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) (server int, err error) {
	server = c.ServerFor(items[0].OID)
	spread := false
	for i := 1; i < len(items) && !spread; i++ {
		spread = c.ServerFor(items[i].OID) != server
	}
	if !spread {
		return server, c.readGroup(ctx, server, snap, items, out)
	}
	bySlot := make(map[int][]int)
	for i := range items {
		s := c.ServerFor(items[i].OID)
		bySlot[s] = append(bySlot[s], i)
	}
	type slotResult struct {
		server int
		idx    []int
		res    []kv.ReadBatchResult
		err    error
	}
	ch := make(chan slotResult, len(bySlot))
	for s, idx := range bySlot {
		sub := make([]kv.ReadBatchItem, len(idx))
		for j, i := range idx {
			sub[j] = items[i]
		}
		go func(s int, idx []int, sub []kv.ReadBatchItem) {
			res := make([]kv.ReadBatchResult, len(sub))
			err := c.readGroup(ctx, s, snap, sub, res)
			ch <- slotResult{server: s, idx: idx, res: res, err: err}
		}(s, idx, sub)
	}
	for range bySlot {
		sr := <-ch
		if sr.err != nil {
			// Prefer reporting a wrong-slot failure: it is the one the
			// caller can fix by partitioning again.
			var ws *kv.WrongSlotError
			if err == nil || (errors.As(sr.err, &ws) && !errors.Is(err, kv.ErrWrongSlot)) {
				server, err = sr.server, sr.err
			}
			continue
		}
		for j, i := range sr.idx {
			out[i] = sr.res[j]
		}
	}
	return server, err
}

// readGroup fetches items — all owned by group server — at snap with
// one RPC, routed like every snapshot read (follower pin, primary
// fallback), and files the clock and frontier the response carries. The
// encoding follows the input's size: one item travels as a
// MethodReadPart call, several as a MethodReadBatch.
func (c *Client) readGroup(ctx context.Context, server int, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	method := kv.MethodReadBatch
	if len(items) == 1 {
		method = kv.MethodReadPart
	}
	respB, viaFollower, err := c.readCall(ctx, server, snap, method, func(epoch uint64) []byte {
		if len(items) == 1 {
			return (&kv.ReadPartReq{Snap: snap, Epoch: epoch, Item: items[0]}).Encode()
		}
		return (&kv.ReadBatchReq{Snap: snap, Epoch: epoch, Items: items}).Encode()
	})
	if err != nil {
		return translateRPCErr(err)
	}
	var clk, frontier clock.Timestamp
	if len(items) == 1 {
		resp, err := kv.DecodeReadPartResp(respB)
		if err != nil {
			return err
		}
		out[0] = kv.ReadBatchResult{Found: resp.Found, Version: resp.Version, Value: resp.Value, Total: resp.Total}
		clk, frontier = resp.Clock, resp.Frontier
	} else {
		resp, err := kv.DecodeReadBatchResp(respB)
		if err != nil {
			return err
		}
		if len(resp.Results) != len(items) {
			return fmt.Errorf("kvclient: read batch answered %d of %d items", len(resp.Results), len(items))
		}
		copy(out, resp.Results)
		clk, frontier = resp.Clock, resp.Frontier
	}
	c.hlc.Observe(clk)
	if frontier != 0 {
		// A backup's answer vouches for the backup-reported bound, a
		// primary's for the fresh one.
		if g := c.group(server); viaFollower {
			g.noteReadFrontier(frontier)
		} else {
			g.noteFrontier(frontier)
		}
	}
	return nil
}

// ReadView is a concurrency-safe, read-only view of the store at a
// fixed snapshot timestamp. Unlike a Tx it stages no writes and
// overlays nothing, so it may be shared across goroutines; the dbt
// scan readahead uses one to prefetch leaves on a background goroutine
// while the owning transaction's goroutine keeps consuming. Reads
// route exactly like transaction reads (follower pinning, primary
// fallback, frontier bookkeeping), and — reading a fixed MVCC snapshot
// — return the same bytes a transaction at the same snapshot with no
// staged writes would see, no matter which goroutine or replica serves
// them.
type ReadView struct {
	c    *Client
	snap clock.Timestamp
}

// View returns a read view of the store at snap.
func (c *Client) View(snap clock.Timestamp) *ReadView {
	return &ReadView{c: c, snap: snap}
}

// View returns a concurrency-safe read view at this transaction's
// snapshot. The view does NOT see the transaction's staged writes —
// callers that may have writes pending must overlay via the Tx.
func (t *Tx) View() *ReadView { return t.c.View(t.start) }

// Snapshot returns the view's snapshot timestamp.
func (v *ReadView) Snapshot() clock.Timestamp { return v.snap }

// ReadPart fetches a window of the supervalue at oid: cells in
// [floor(from), to) capped at max, plus the node's total cell count.
// The zero window (nil, nil, 0) is the whole object.
func (v *ReadView) ReadPart(ctx context.Context, oid kv.OID, from, to []byte, max uint32) (*kv.Value, int, error) {
	var out [1]kv.ReadBatchResult
	item := [1]kv.ReadBatchItem{{OID: oid, Part: true, From: from, To: to, Max: max}}
	if err := v.c.readItems(ctx, v.snap, item[:], out[:]); err != nil {
		return nil, 0, err
	}
	if !out[0].Found {
		return nil, 0, kv.ErrNotFound
	}
	return out[0].Value, int(out[0].Total), nil
}

// ReadBatch performs len(items) snapshot reads in as few RPCs as the
// data's placement allows (see readItems). The same contract as
// Tx.ReadBatch minus any overlay: results are positional, absent
// objects come back Found=false. The dbt scan readahead uses this to
// fetch runs of predicted leaves with one round trip.
func (v *ReadView) ReadBatch(ctx context.Context, items []kv.ReadBatchItem) ([]kv.ReadBatchResult, error) {
	out := make([]kv.ReadBatchResult, len(items))
	if err := v.c.readItems(ctx, v.snap, items, out); err != nil {
		return nil, err
	}
	return out, nil
}

// translateRPCErr maps application errors from the server back to the
// package's sentinel errors so callers can match with errors.Is. The
// match is by wire code (rpc.AppError.Code, assigned by the server's
// error coder, which ranks an uncertain commit above the not-executed
// sentinels its message may embed — see kv.WireErrorCode).
func translateRPCErr(err error) error {
	var app *rpc.AppError
	if errors.As(err, &app) {
		switch app.Code {
		case kv.CodeUncertain:
			// A commit that failed its replication/durability wait: the
			// record is in the primary's local stream but the backup's
			// acknowledgment never came, so whether it survives a
			// failover is unknown — the same contract as a lost ack.
			return fmt.Errorf("%w: %s", kv.ErrUncertain, app.Msg)
		case kv.CodeConflict:
			return fmt.Errorf("%w: %s", kv.ErrConflict, app.Msg)
		case kv.CodeWrongEpoch:
			return fmt.Errorf("%w: %s", kv.ErrWrongEpoch, app.Msg)
		case kv.CodeWrongSlot:
			// Keep the typed redirect: the data paths re-route on it
			// (retryWrongSlot) instead of surfacing it.
			if ws, ok := kv.ParseWrongSlot(app.Msg); ok {
				return ws
			}
			return fmt.Errorf("%w: %s", kv.ErrWrongSlot, app.Msg)
		case kv.CodeBadRequest:
			return fmt.Errorf("%w: %s", kv.ErrBadRequest, app.Msg)
		}
	}
	return err
}
