package kvserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/rpc"
	"yesquel/internal/wire"
)

// Server exposes a Store over the RPC stack. One Server corresponds to
// one storage-server process in Figure 1 of the paper.
type Server struct {
	store   *Store
	rpc     *rpc.Server
	ln      net.Listener
	sweeper *time.Ticker
	ckpt    *time.Ticker
	stopCh  chan struct{}
	// mirrorMu guards the backup-connection and lease-loop maps, both
	// keyed by backup address (the member identity everywhere: the
	// pipeline's member id, the epoch membership entry, and the lease
	// grant all use it).
	mirrorMu    sync.Mutex
	mirrorConns map[string]*rpc.Client
	// leaseStops terminates each member's lease-renewal loop.
	leaseStops map[string]chan struct{}
	// isolated simulates an outbound network partition: while set, the
	// mirror hook and lease renewals fail without sending, so the
	// server's lease expires and its strict-mirror writes fail exactly
	// as they would behind a real partition. Chaos tests use it; see
	// Isolate.
	isolated atomic.Bool
	// TestHookSnapChunk, when non-nil, runs after each snapshot chunk
	// fetched during a state transfer (StateTransferFrom). Chaos tests
	// kill the snapshot source mid-install with it. Set before starting
	// the transfer; never in production.
	TestHookSnapChunk func(chunk uint32)
}

// NewServer wraps store in an RPC service. Call Listen, then Serve, to
// start it.
func NewServer(store *Store) *Server {
	s := &Server{store: store, rpc: rpc.NewServer(), stopCh: make(chan struct{})}
	s.rpc.SetErrorCoder(func(err error, detail *wire.Buffer) uint64 {
		return kv.WireErrorCode(err, s.store.Clock().Now(), detail)
	})
	// Background hygiene: tombstone sweeping at half the retention
	// period, plus orphaned-prepare and decided-table eviction (their
	// TTLs are far coarser than the tick, so sharing the ticker only
	// costs a cheap scan).
	s.sweeper = time.NewTicker(time.Duration(store.cfg.RetentionMillis/2+1) * time.Millisecond)
	// The replication-log bound gets its own short ticker, independent
	// of the retention-sized sweep: a primary enforces it inline in the
	// emit paths, but a live-mirror backup defers routine truncation
	// off the ack path (see ApplyMirroredBatch), so this ticker is what
	// keeps a backup's overshoot to about one second of writes rather
	// than half a retention period.
	s.ckpt = time.NewTicker(time.Second)
	go func() {
		for {
			select {
			case <-s.stopCh:
				return
			case <-s.sweeper.C:
				s.store.SweepTombstones()
				s.store.SweepOrphans()
				s.store.SweepDecided()
			case <-s.ckpt.C:
				s.store.MaybeCheckpoint()
				s.store.SweepSnapshotSessions()
			}
		}
	}()
	s.rpc.RegisterAppend(kv.MethodReadPart, s.handleReadPart)
	s.rpc.RegisterAppend(kv.MethodReadBatch, s.handleReadBatch)
	s.rpc.RegisterAppend(kv.MethodPrepare, s.handlePrepare)
	s.rpc.RegisterAppend(kv.MethodCommit, s.handleCommit)
	s.rpc.RegisterAppend(kv.MethodAbort, s.handleAbort)
	s.rpc.RegisterAppend(kv.MethodFastCommit, s.handleFastCommit)
	s.rpc.RegisterAppend(kv.MethodPing, s.handlePing)
	s.rpc.RegisterAppend(kv.MethodMirrorBatch, s.handleMirrorBatch)
	s.rpc.RegisterAppend(kv.MethodSnap, s.handleSnap)
	s.rpc.RegisterAppend(kv.MethodLease, s.handleLease)
	s.rpc.RegisterAppend(kv.MethodDirectory, s.handleDirectory)
	return s
}

// ack builds the generic acknowledgment, piggybacking the current
// epoch and membership, so clients keep their group view fresh from
// ordinary traffic (any ack, including the ping a fully idle client's
// heartbeat sends).
func (s *Server) ack(reply *wire.Buffer) error {
	(&kv.Ack{
		Clock:      s.store.Clock().Now(),
		Epoch:      s.store.Epoch(),
		Members:    s.store.Members(),
		DirVersion: s.store.DirVersion(),
	}).AppendTo(reply)
	return nil
}

// handleDirectory serves the full slot directory (MethodDirectory). A
// client that learns of a newer version — from an Ack piggyback or a
// WrongSlotError redirect — fetches the map here.
func (s *Server) handleDirectory(_ context.Context, _ []byte, reply *wire.Buffer) error {
	(&kv.DirectoryResp{Dir: s.store.Directory(), Clock: s.store.Clock().Now()}).AppendTo(reply)
	return nil
}

// AttachBackupMember adds the backup at addr to this primary's
// replication group: every stream record — commits, two-phase prepares,
// and phase-two decisions — is replicated to it, so after a primary
// failure a promoted backup holds every acknowledged write and every
// prepared in-flight transaction. Each member gets its own connection,
// its own batch sender (a dead member's timeout never stalls the
// others), and its own lease-renewal loop; replication is pipelined
// group commit (see pipeline.go), and committers are acknowledged once
// a MAJORITY of the group (the primary plus a quorum of backups) holds
// their record. A backup that is behind is caught up by the sender from
// the retained log, and AttachBackupMember returns once it holds every
// record emitted before the call; until then it is a learner, which
// commits neither wait for nor fail on. A backup behind the retained log
// (ErrBehindLog) or diverged from this stream (kv.ErrDiverged) is
// refused and detached; it rejoins by state transfer
// (StateTransferFrom) and a new attach. The member joins the membership
// — roles, leases, client redirects — at the next BumpEpoch.
func (s *Server) AttachBackupMember(addr string) error {
	conn, err := rpc.Dial(addr)
	if err != nil {
		return fmt.Errorf("kvserver: dialing backup: %w", err)
	}
	s.mirrorMu.Lock()
	if old := s.mirrorConns[addr]; old != nil {
		old.Close()
	}
	if s.mirrorConns == nil {
		s.mirrorConns = make(map[string]*rpc.Client)
	}
	s.mirrorConns[addr] = conn
	s.mirrorMu.Unlock()
	joined := s.store.AttachMirrorMember(addr, func(req *kv.MirrorBatchReq) error {
		err, _ := kv.DecodeError(s.callExtendingLease(conn, addr, kv.MethodMirrorBatch, req.Encode()))
		return err
	})
	s.startLeaseLoop(addr, conn)
	if err := s.awaitJoin(addr, joined); err != nil {
		s.DetachBackupMember(addr)
		return fmt.Errorf("kvserver: attaching backup %s: %w", addr, err)
	}
	return nil
}

// Join attaches backup to primary as a replication member, and returns
// once the backup holds primary's stream. A backup behind primary's
// retained log, or diverged from its stream, is first rebuilt by state
// transfer — the one decision of which refusals a state transfer
// answers.
func Join(primary, backup *Server) error {
	err := primary.AttachBackupMember(backup.Addr())
	if errors.Is(err, ErrBehindLog) || errors.Is(err, kv.ErrDiverged) {
		if err = backup.StateTransferFrom(primary.Addr()); err == nil {
			err = primary.AttachBackupMember(backup.Addr())
		}
	}
	return err
}

// awaitJoin waits for the member at addr to answer its attach. The
// bound is on progress, not on the whole catch-up: a long replay of the
// retained log goes on while the member's acks keep advancing, and only
// a member whose acks stand still for replWaitTimeout is given up.
func (s *Server) awaitJoin(addr string, joined <-chan error) error {
	t := time.NewTimer(replWaitTimeout)
	defer t.Stop()
	var progress uint64
	for {
		select {
		case err := <-joined:
			return err
		case <-t.C:
		}
		_, _, _, members := s.store.ReplicationStatus()
		acked := progress
		for _, m := range members {
			if m.Member == addr {
				acked = m.AckedSeq
			}
		}
		if acked <= progress {
			return fmt.Errorf("kvserver: catch-up made no progress within %v", replWaitTimeout)
		}
		progress = acked
		t.Reset(replWaitTimeout)
	}
}

// DetachBackupMember removes the backup at addr from the replication
// group: its sender and lease loop stop and its connection closes.
// Waiters are re-judged against the remaining members' quorum (see
// Store.DetachMirrorMember).
func (s *Server) DetachBackupMember(addr string) {
	s.store.DetachMirrorMember(addr)
	s.mirrorMu.Lock()
	if stop, ok := s.leaseStops[addr]; ok {
		close(stop)
		delete(s.leaseStops, addr)
	}
	if conn, ok := s.mirrorConns[addr]; ok {
		conn.Close()
		delete(s.mirrorConns, addr)
	}
	s.mirrorMu.Unlock()
}

// DetachAllBackups removes every attached backup; in-flight durability
// waiters fail (they are uncertain, not acked).
func (s *Server) DetachAllBackups() {
	s.store.DetachAllMirrorMembers()
	s.mirrorMu.Lock()
	for addr, stop := range s.leaseStops {
		close(stop)
		delete(s.leaseStops, addr)
	}
	for addr, conn := range s.mirrorConns {
		conn.Close()
		delete(s.mirrorConns, addr)
	}
	s.mirrorMu.Unlock()
}

// callExtendingLease performs one RPC to the backup at member whose
// acknowledgment doubles as that member's lease grant (mirror records
// and MethodLease renewals alike): the call is timeout-bounded — it
// runs while the caller may hold the replication stream, and a frozen
// backup must fail the operation after a bounded wait, not wedge the
// primary's write path — the member's grant is extended from before
// the request was sent (the backup's grant, measured from receipt,
// necessarily outlasts it), and the ack's clock is merged. While
// Isolate is in effect, the call fails without sending.
func (s *Server) callExtendingLease(conn *rpc.Client, member, method string, payload []byte) error {
	if s.isolated.Load() {
		return errIsolated
	}
	ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
	defer cancel()
	t0 := time.Now()
	respB, err := conn.Call(ctx, method, payload)
	if err != nil {
		return err
	}
	s.store.ExtendLease(member, t0.Add(s.store.cfg.LeaseDuration))
	if ack, err := kv.DecodeAck(respB); err == nil {
		s.store.Clock().Observe(ack.Clock)
	}
	return nil
}

// errIsolated marks replication traffic suppressed by Isolate.
var errIsolated = errors.New("kvserver: outbound replication isolated (simulated partition)")

// Isolate simulates an outbound network partition for chaos tests:
// mirror records and lease renewals fail without being sent, so this
// server's lease expires and, once the group establishes a new epoch,
// it can never acknowledge another write. Inbound RPCs still work —
// clients on the "wrong side" of the partition can still reach the
// server and must be turned away by the lease/epoch checks, which is
// precisely what the tests assert.
func (s *Server) Isolate() { s.isolated.Store(true) }

// startLeaseLoop begins periodic lease renewals to the backup member
// at addr over conn, replacing any previous loop for that member.
// Renewals keep the member's grant fresh through write-idle periods
// (mirror acks cover the busy ones); each member renews on its own
// loop, so one unreachable member blocking on its timeout never
// starves the others' renewals — exactly what lets a quorum lease
// survive any minority of down members.
func (s *Server) startLeaseLoop(addr string, conn *rpc.Client) {
	stop := make(chan struct{})
	s.mirrorMu.Lock()
	if old, ok := s.leaseStops[addr]; ok {
		close(old)
	}
	if s.leaseStops == nil {
		s.leaseStops = make(map[string]chan struct{})
	}
	s.leaseStops[addr] = stop
	s.mirrorMu.Unlock()
	go func() {
		interval := s.store.cfg.LeaseDuration / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-s.stopCh:
				return
			case <-t.C:
				if !s.renewLease(addr, conn) {
					return
				}
			}
		}
	}()
}

// renewLease sends one lease renewal to the backup member at addr and
// reports whether that member's renewal loop should keep running. A
// wrong-epoch rejection means the group moved on while we were away:
// adopt the new configuration (dropping to RoleRemoved if deposed) so
// clients are redirected instead of served stale data — and stop
// renewing; a deposed member hammering the new primary with doomed
// renewals forever would only pollute its WrongEpochRejects signal.
// Any other failure simply leaves that member's grant to expire on its
// own — with rf >= 3 the lease survives on the remaining members'
// grants as long as they form a majority.
func (s *Server) renewLease(addr string, conn *rpc.Client) bool {
	if s.store.Role() != RolePrimary {
		return false // deposed or reconfigured away: nothing to renew
	}
	req := &kv.LeaseReq{Epoch: s.store.Epoch()}
	err, _ := kv.DecodeError(s.callExtendingLease(conn, addr, kv.MethodLease, req.Encode()))
	var we *kv.WrongEpochError
	if errors.As(err, &we) {
		s.store.AdoptEpoch(we.Epoch, we.Members)
		return s.store.Role() == RolePrimary
	}
	return true
}

// handleLease grants (or refuses) a primary's lease renewal. Only a
// member that still believes in the renewal's epoch — and is not
// mid-promotion — grants; otherwise it answers with the current
// configuration, deposing the caller.
func (s *Server) handleLease(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeLeaseReq(p)
	if err != nil {
		return err
	}
	if err := s.store.RenewLeaseGrant(req.Epoch); err != nil {
		return err
	}
	return s.ack(reply)
}

// Promote makes this member the primary of a new epoch whose sole
// member is itself: the epoch bump that completes a failover. Unless
// force is set, it first freezes its grant clock (BeginPromotion — so
// no in-flight mirror ack or renewal can re-arm the lease mid-wait)
// and waits out any lease it granted, so a live-but-partitioned old
// primary has provably stopped serving before the new epoch
// acknowledges its first write. force is for orchestrators that know
// the old primary is dead (they killed it) — fencing by certainty
// instead of by clock. It returns the new epoch.
func (s *Server) Promote(force bool) (uint64, error) {
	st := s.store
	st.BeginPromotion()
	if !force {
		for {
			wait := time.Until(st.GrantExpiry())
			if wait <= 0 {
				break
			}
			time.Sleep(wait)
		}
	}
	newEpoch := st.Epoch() + 1
	if err := st.InstallEpoch(newEpoch, []string{s.Addr()}); err != nil {
		st.AbandonPromotion()
		return 0, err
	}
	return newEpoch, nil
}

// BumpEpoch moves this primary's group to a fresh configuration with
// the given membership (this server first). cluster.Restart uses it
// after re-attaching a backup: the RecEpoch record flows through the
// mirror like any other, so the new member installs the configuration
// at the right point in its stream.
func (s *Server) BumpEpoch(members []string) (uint64, error) {
	newEpoch := s.store.Epoch() + 1
	if err := s.store.InstallEpoch(newEpoch, members); err != nil {
		return 0, err
	}
	return newEpoch, nil
}

// FormGroup makes this server the primary of a group with the backups
// at addrs: each is attached as a replication member, then one epoch
// bump installs [this server, addrs...] as the membership. The RecEpoch
// record reaches every backup through the stream it was just attached
// to, and its acks are the primary's first lease grants. The server
// must be listening — its address is its member identity — and each
// backup must hold a prefix of this server's stream within its retained
// log (a fresh store does, at an empty stream); the attach fills its
// gap.
func (s *Server) FormGroup(addrs []string) (uint64, error) {
	for _, a := range addrs {
		if err := s.AttachBackupMember(a); err != nil {
			return 0, err
		}
	}
	return s.BumpEpoch(append([]string{s.Addr()}, addrs...))
}

// BumpEpochTo installs the given epoch with the given membership (this
// server first) — the failover promotion path, where the new epoch
// must exceed whatever ANY live member has seen, not merely this
// member's own epoch plus one. The store still refuses an epoch at or
// below its current one.
func (s *Server) BumpEpochTo(epoch uint64, members []string) error {
	return s.store.InstallEpoch(epoch, members)
}

// mirrorTimeout bounds one synchronous mirror round trip.
const mirrorTimeout = 5 * time.Second

// handleMirrorBatch applies one group-commit batch; the single ack
// covers (and, via callExtendingLease on the primary, renews the lease
// for) every record in it.
func (s *Server) handleMirrorBatch(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeMirrorBatchReq(p)
	if err != nil {
		return err
	}
	if err := s.store.ApplyMirroredBatch(req); err != nil {
		return err
	}
	return s.ack(reply)
}

// handleSnap serves one chunk of a state snapshot to a peer rebuilding
// itself by state transfer (see StateTransferFrom and
// Store.ServeSnapshotChunk).
func (s *Server) handleSnap(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeSnapReq(p)
	if err != nil {
		return err
	}
	id, seq, chunks, data, err := s.store.ServeSnapshotChunk(req.ID, req.Chunk)
	if err != nil {
		return err
	}
	resp := &kv.SnapResp{
		ID:     id,
		Seq:    seq,
		Chunk:  req.Chunk,
		Chunks: chunks,
		Data:   data,
		Clock:  s.store.Clock().Now(),
	}
	resp.AppendTo(reply)
	return nil
}

// snapTransferAttempts bounds how many times one state transfer
// restarts after its server-side session expired or was evicted (a slow
// link, or concurrent transfers past the session cap). Each restart
// begins a fresh consistent snapshot, so partial progress is discarded
// but never spliced.
const snapTransferAttempts = 3

// StateTransferFrom rebuilds this replica from the server at addr by
// full state transfer, abandoning its own history: a complete snapshot
// of the source, fetched chunk by chunk (MethodSnap), replaces the local
// state wholesale and moves the stream head to the snapshot's coverage
// — even when the local head is AHEAD of it (a diverged old primary: its
// stranded tail is discarded, never merged). It is how a backup behind
// the source's retained log, or diverged from its stream, rejoins; the
// source's mirror then fills in the records since the snapshot. Nothing
// is installed unless every chunk arrived.
func (s *Server) StateTransferFrom(addr string) error {
	conn, err := rpc.Dial(addr)
	if err != nil {
		return fmt.Errorf("kvserver: dialing state-transfer source: %w", err)
	}
	defer conn.Close()
	ctx := context.Background()
	var lastErr error
	for attempt := 0; attempt < snapTransferAttempts; attempt++ {
		var data []byte
		var id uint64
		expired := false
		for chunk := uint32(0); ; chunk++ {
			req := kv.SnapReq{ID: id, Chunk: chunk}
			respB, err := conn.Call(ctx, kv.MethodSnap, req.Encode())
			if err, _ := kv.DecodeError(err); err != nil {
				if errors.Is(err, kv.ErrSnapSessionExpired) {
					lastErr = err
					expired = true
					break
				}
				return fmt.Errorf("kvserver: snapshot chunk %d from %s: %w", chunk, addr, err)
			}
			resp, err := kv.DecodeSnapResp(respB)
			if err != nil {
				return err
			}
			s.store.Clock().Observe(resp.Clock)
			id = resp.ID
			data = append(data, resp.Data...)
			if s.TestHookSnapChunk != nil {
				s.TestHookSnapChunk(chunk)
			}
			if chunk+1 >= resp.Chunks {
				break
			}
		}
		if expired {
			continue
		}
		if err := s.store.InstallSnapshot(data); err != nil {
			return fmt.Errorf("kvserver: installing snapshot from %s: %w", addr, err)
		}
		return nil
	}
	return fmt.Errorf("kvserver: snapshot transfer from %s restarted %d times without completing: %w", addr, snapTransferAttempts, lastErr)
}

// Store returns the underlying storage engine.
func (s *Server) Store() *Store { return s.store }

// ServerStats combines the store's activity counters with the
// replication-group state an operator needs during a failover drill:
// which epoch this member is in, its role, the membership it believes,
// and whether it currently holds serving authority.
type ServerStats struct {
	StatsSnapshot
	Epoch      uint64
	Role       string
	Members    []string
	LeaseValid bool
	// Replication-group progress (meaningful on a primary with
	// attached backups): the stream head, the quorum durability
	// watermark, how many member acks complete a quorum, and each
	// member's individual progress — AckLag = ReplHead - AckedSeq is
	// the signal that flags a permanently-behind minority member.
	ReplHead   uint64
	QuorumMark uint64
	QuorumNeed int
	Replicas   []ReplicaStatus
	// WatermarkLag is, on a primary, how far the stream head runs ahead
	// of the quorum watermark (ReplHead - QuorumMark): the records
	// emitted but not yet held by a majority. A lag that keeps growing
	// means the backups cannot keep up with the primary's emissions.
	WatermarkLag uint64
	// Conns is the number of open inbound connections. The rpc layer
	// puts one call on a connection, so this is the peak concurrency of
	// every client — SQL clients, the primary's mirror senders and lease
	// loops — that has not yet closed.
	Conns int
}

// Stats reports counters plus epoch/lease/replication state (see
// ServerStats).
func (s *Server) Stats() ServerStats {
	head, mark, need, replicas := s.store.ReplicationStatus()
	var lag uint64
	if head > mark {
		lag = head - mark
	}
	return ServerStats{
		StatsSnapshot: s.store.Stats(),
		Epoch:         s.store.Epoch(),
		Role:          s.store.Role(),
		Members:       s.store.Members(),
		LeaseValid:    s.store.LeaseValid(),
		ReplHead:      head,
		QuorumMark:    mark,
		QuorumNeed:    need,
		Replicas:      replicas,
		WatermarkLag:  lag,
		Conns:         s.rpc.Conns(),
	}
}

// Listen binds addr without serving. Serve must be called next. The
// bound address becomes the store's member identity for epoch roles.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.store.SetSelf(ln.Addr().String())
	return nil
}

// Serve runs the accept loop on the listener from Listen. It blocks.
func (s *Server) Serve() error { return s.rpc.Serve(s.ln) }

// Addr returns the bound address (valid after Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts down the RPC server and all connections.
func (s *Server) Close() error {
	select {
	case <-s.stopCh:
	default:
		close(s.stopCh)
		s.sweeper.Stop()
		s.ckpt.Stop()
	}
	// Shut the RPC server down BEFORE detaching the replication
	// pipeline, and in this order only. rpc.Close closes every
	// connection and then waits for in-flight handlers to drain; any
	// commit still executing keeps its full durability requirement (the
	// members are still attached) and, whatever its outcome, cannot
	// deliver an acknowledgment on a closed connection. Detaching first
	// would empty the member set under those handlers — durableLocked
	// with no members and no WAL demand is trivially satisfied — and a
	// late commit would be acked as if this were an unreplicated store:
	// an acknowledged write existing only on a dying primary, exactly
	// the loss the quorum is there to prevent.
	err := s.rpc.Close()
	// Handlers drained: now stop the member senders and lease loops.
	// Remaining durability waiters (none can ack a client anymore) fail
	// as uncertain.
	s.DetachAllBackups()
	return err
}

// serveReads is the one admission rule and the one read loop: it
// answers items at snap into out, positionally. Admission is decided
// once for the request — the epoch/lease check every client operation
// passes (only the primary serves), then slot ownership, where one
// stale item rejects the lot: the client regroups every item under the
// directory version the redirect carries, so a partial answer would
// only be fetched again. The reads then take their per-shard locks one
// by one. An absent object leaves its result Found=false: absence is a
// normal outcome and must not fail the items beside it.
func (s *Server) serveReads(snap kv.Timestamp, epoch uint64, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	if err := s.store.CheckClientOp(epoch); err != nil {
		return err
	}
	for i := range items {
		if err := s.store.CheckClientSlot(items[i].OID); err != nil {
			return err
		}
	}
	for i := range items {
		it := &items[i]
		val, total, ver, err := s.store.ReadPart(it.OID, snap, it.From, it.To, it.Max)
		switch {
		case err == nil:
			out[i] = kv.ReadBatchResult{Found: true, Version: ver, Value: val, Total: uint32(total)}
		case errors.Is(err, kv.ErrNotFound):
		default:
			return err
		}
	}
	return nil
}

func (s *Server) handleReadPart(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeReadPartReq(p)
	if err != nil {
		return err
	}
	var out [1]kv.ReadBatchResult
	if err := s.serveReads(req.Snap, req.Epoch, []kv.ReadBatchItem{req.Item}, out[:]); err != nil {
		return err
	}
	res := &out[0]
	resp := kv.ReadPartResp{Found: res.Found, Version: res.Version, Value: res.Value, Total: res.Total,
		Clock: s.store.Clock().Now()}
	resp.AppendTo(reply)
	return nil
}

func (s *Server) handleReadBatch(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeReadBatchReq(p)
	if err != nil {
		return err
	}
	resp := kv.ReadBatchResp{Results: make([]kv.ReadBatchResult, len(req.Items))}
	if err := s.serveReads(req.Snap, req.Epoch, req.Items, resp.Results); err != nil {
		return err
	}
	resp.Clock = s.store.Clock().Now()
	resp.AppendTo(reply)
	return nil
}

func (s *Server) handlePrepare(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodePrepareReq(p)
	if err != nil {
		return err
	}
	if err := s.store.CheckClientOp(req.Epoch); err != nil {
		return err
	}
	// Early redirect before any lock work; the authoritative fence is
	// the in-store ownership re-check under repMu (see store.prepare).
	for _, op := range req.Ops {
		if err := s.store.CheckClientSlot(op.OID); err != nil {
			return err
		}
	}
	proposed, err := s.store.Prepare(req.TxID, req.Start, req.Ops)
	if err != nil {
		return err
	}
	(&kv.PrepareResp{Proposed: proposed, Clock: s.store.Clock().Now()}).AppendTo(reply)
	return nil
}

func (s *Server) handleCommit(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeCommitReq(p)
	if err != nil {
		return err
	}
	if err := s.store.CheckClientOp(req.Epoch); err != nil {
		return err
	}
	if err := s.store.Commit(req.TxID, req.CommitTS); err != nil {
		return err
	}
	return s.ack(reply)
}

func (s *Server) handleAbort(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeAbortReq(p)
	if err != nil {
		return err
	}
	if err := s.store.CheckClientOp(req.Epoch); err != nil {
		return err
	}
	s.store.Abort(req.TxID)
	return s.ack(reply)
}

func (s *Server) handleFastCommit(_ context.Context, p []byte, reply *wire.Buffer) error {
	req, err := kv.DecodeFastCommitReq(p)
	if err != nil {
		return err
	}
	if err := s.store.CheckClientOp(req.Epoch); err != nil {
		return err
	}
	for _, op := range req.Ops {
		if err := s.store.CheckClientSlot(op.OID); err != nil {
			return err
		}
	}
	commitTS, err := s.store.FastCommit(req.TxID, req.Start, req.Ops)
	if err != nil {
		return err
	}
	(&kv.FastCommitResp{CommitTS: commitTS, Clock: s.store.Clock().Now()}).AppendTo(reply)
	return nil
}

// handlePing answers from any member regardless of role: pings merge
// clocks and report the current configuration (via the ack piggyback),
// both of which a client must be able to get from whichever replica
// still answers.
func (s *Server) handlePing(_ context.Context, _ []byte, reply *wire.Buffer) error {
	return s.ack(reply)
}
