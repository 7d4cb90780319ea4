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
	// mirrorMu guards the backup connections, keyed by backup address
	// (the member identity everywhere: the pipeline's member id, the
	// epoch membership entry, and the lease grant all use it).
	mirrorMu    sync.Mutex
	mirrorConns map[string]*mirrorConn
	// isolated simulates an outbound network partition: while set, every
	// mirror batch, heartbeats included, fails without sending, so the
	// server's lease expires and its strict-mirror writes fail exactly
	// as they would behind a real partition. Chaos tests use it; see
	// Isolate.
	isolated atomic.Bool
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
	s.rpc.RegisterAppend(kv.MethodDirectory, s.handleDirectory)
	return s
}

// ack builds the generic acknowledgment, piggybacking the current
// epoch and membership, so clients keep their group view fresh from
// ordinary traffic (any ack, including the ping a fully idle client's
// heartbeat sends).
func (s *Server) ack(reply *wire.Buffer) error {
	(&kv.Ack{
		Clock:   s.store.Clock().Now(),
		Epoch:   s.store.Epoch(),
		Members: s.store.Members(),
	}).AppendTo(reply)
	return nil
}

// handleDirectory serves the full slot directory (MethodDirectory): a
// client learns it once, after it opens.
func (s *Server) handleDirectory(_ context.Context, _ []byte, reply *wire.Buffer) error {
	(&kv.DirectoryResp{Dir: s.store.Directory(), Clock: s.store.Clock().Now()}).AppendTo(reply)
	return nil
}

// AttachBackupMember adds the backup at addr to this primary's
// replication group: every stream record — commits, two-phase prepares,
// and phase-two decisions — is replicated to it, so after a primary
// failure a promoted backup holds every acknowledged write and every
// prepared in-flight transaction. Each member gets its own connection
// and its own batch sender (see pipeline.go), whose accepted batches,
// heartbeats included, are the member's lease grants, and committers
// are acknowledged once a MAJORITY of the group holds their record. The
// sender catches the backup up from the retained log, or by pushing it
// a snapshot, and AttachBackupMember returns once it holds every record
// emitted before the call; until then it is a learner, which commits
// neither wait for nor fail on. A backup the first send cannot reach is
// detached and the error returned; once joined, a failing member is
// retried until it is detached. The member joins the membership —
// roles, leases, client redirects — at the next BumpEpoch.
func (s *Server) AttachBackupMember(addr string) error {
	mc := &mirrorConn{addr: addr}
	mc.ctx, mc.cancel = context.WithCancel(context.Background())
	s.mirrorMu.Lock()
	if old := s.mirrorConns[addr]; old != nil {
		old.closeLocked()
	}
	if s.mirrorConns == nil {
		s.mirrorConns = make(map[string]*mirrorConn)
	}
	s.mirrorConns[addr] = mc
	s.mirrorMu.Unlock()
	joined := s.store.AttachMirrorMember(addr, func(req *kv.MirrorBatchReq) error {
		return s.mirrorCall(mc, req)
	})
	if err := s.awaitJoin(addr, joined); err != nil {
		s.DetachBackupMember(addr)
		return fmt.Errorf("kvserver: attaching backup %s: %w", addr, err)
	}
	return nil
}

// mirrorConn is the connection one member's sender calls its backup on:
// dialed on the first send, and again on the send after a transport
// error, since an rpc.Client fails for good at its first one.
type mirrorConn struct {
	addr   string
	c      *rpc.Client // nil until dialed, and after a transport error
	ctx    context.Context
	cancel context.CancelFunc // the member was detached: end a dial, dial no more
}

// closeLocked closes the connection for good, cancelling a dial in
// progress. Caller holds mirrorMu.
func (mc *mirrorConn) closeLocked() {
	mc.cancel()
	if mc.c != nil {
		mc.c.Close()
		mc.c = nil
	}
}

// mirrorCall sends one batch to the member's backup. Every batch,
// heartbeats included, is one timeout-bounded call: a frozen backup
// must fail its batch after a bounded wait, not wedge the sender its
// lease grants ride. While Isolate is in effect, the batch fails without
// being sent.
func (s *Server) mirrorCall(mc *mirrorConn, req *kv.MirrorBatchReq) error {
	if s.isolated.Load() {
		return errIsolated
	}
	s.mirrorMu.Lock()
	conn := mc.c
	s.mirrorMu.Unlock()
	if conn == nil {
		// Dialed off the lock, which every member's sender takes; a
		// detach cancels the dial.
		c, err := rpc.DialContext(mc.ctx, mc.addr, mirrorTimeout)
		if err != nil {
			return fmt.Errorf("kvserver: dialing backup: %w", err)
		}
		s.mirrorMu.Lock()
		if mc.ctx.Err() != nil {
			s.mirrorMu.Unlock()
			c.Close()
			return errDetached
		}
		mc.c, conn = c, c
		s.mirrorMu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
	defer cancel()
	respB, err := conn.Call(ctx, kv.MethodMirrorBatch, req.Encode())
	var app *rpc.AppError
	if err != nil && !errors.As(err, &app) {
		s.mirrorMu.Lock()
		if mc.c == conn {
			conn.Close()
			mc.c = nil
		}
		s.mirrorMu.Unlock()
	}
	if err, _ := kv.DecodeError(err); err != nil {
		return err
	}
	if ack, err := kv.DecodeAck(respB); err == nil {
		s.store.Clock().Observe(ack.Clock)
	}
	return nil
}

// awaitJoin waits for the member at addr to answer its attach. The
// bound is on progress, not on the whole catch-up: a long replay of the
// retained log or a long snapshot push goes on while the member's acks
// or accepted chunks keep advancing, and only a member whose progress
// stands still for replWaitTimeout is given up.
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
		now := s.store.memberProgress(addr)
		if now <= progress {
			return fmt.Errorf("kvserver: catch-up made no progress within %v", replWaitTimeout)
		}
		progress = now
		t.Reset(replWaitTimeout)
	}
}

// DetachBackupMember removes the backup at addr from the replication
// group: its sender stops and its connection closes.
// Waiters are re-judged against the remaining members' quorum (see
// Store.DetachMirrorMember).
func (s *Server) DetachBackupMember(addr string) {
	s.store.DetachMirrorMember(addr)
	s.mirrorMu.Lock()
	if mc, ok := s.mirrorConns[addr]; ok {
		mc.closeLocked()
		delete(s.mirrorConns, addr)
	}
	s.mirrorMu.Unlock()
}

// DetachAllBackups removes every attached backup; in-flight durability
// waiters fail (they are uncertain, not acked).
func (s *Server) DetachAllBackups() {
	s.store.DetachAllMirrorMembers()
	s.mirrorMu.Lock()
	for addr, mc := range s.mirrorConns {
		mc.closeLocked()
		delete(s.mirrorConns, addr)
	}
	s.mirrorMu.Unlock()
}

// errIsolated marks replication traffic suppressed by Isolate.
var errIsolated = errors.New("kvserver: outbound replication isolated (simulated partition)")

// Isolate simulates an outbound network partition for chaos tests:
// mirror batches, heartbeats included, fail without being sent, so this
// server's lease expires and, once the group establishes a new epoch,
// it can never acknowledge another write. Inbound RPCs still work —
// clients on the "wrong side" of the partition can still reach the
// server and must be turned away by the lease/epoch checks, which is
// precisely what the tests assert.
func (s *Server) Isolate() { s.isolated.Store(true) }

// Promote makes this member the primary of a new epoch whose sole
// member is itself: the epoch bump that completes a failover. Unless
// force is set, it first freezes its grant clock (BeginPromotion — so
// no in-flight mirror batch can re-arm the lease mid-wait)
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

// handleMirrorBatch applies one group-commit batch, or none: an empty
// batch is a heartbeat, and a batch carrying a snapshot piece is a chunk
// of a pushed snapshot. The single ack covers every record in it, and
// is the member's lease grant to the primary.
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
	// every client — SQL clients, the primary's mirror senders — that
	// has not yet closed.
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
	// Handlers drained: now stop the member senders, and wait for them
	// to return — the detach closes their connections and cancels their
	// dials, so none waits out a timeout on an unreachable backup.
	// Remaining durability waiters (none can ack a client anymore) fail
	// as uncertain.
	s.DetachAllBackups()
	s.store.pipe.senders.Wait()
	return err
}

// serveReads is the one admission rule and the one read loop: it
// answers items at snap into out, positionally. Admission is decided
// once for the request — the epoch/lease check every client operation
// passes (only the primary serves), then slot ownership, where one
// misrouted item rejects the lot. The reads then take their per-shard
// locks one by one. An absent object leaves its result Found=false: absence is a
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
	for _, op := range req.Ops {
		if err := s.store.CheckClientSlot(op.OID); err != nil {
			return err
		}
	}
	proposed, cells, err := s.store.prepareVote(req.TxID, req.Start, req.Ops)
	if err != nil {
		return err
	}
	(&kv.PrepareResp{Proposed: proposed, Clock: s.store.Clock().Now(), Cells: cells}).AppendTo(reply)
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
	commitTS, cells, err := s.store.fastCommit(req.TxID, req.Start, req.Ops)
	if err != nil {
		return err
	}
	(&kv.FastCommitResp{CommitTS: commitTS, Clock: s.store.Clock().Now(), Cells: cells}).AppendTo(reply)
	return nil
}

// handlePing answers from any member regardless of role: pings merge
// clocks and report the current configuration (via the ack piggyback),
// both of which a client must be able to get from whichever replica
// still answers.
func (s *Server) handlePing(_ context.Context, _ []byte, reply *wire.Buffer) error {
	return s.ack(reply)
}
