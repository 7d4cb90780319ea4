package kvserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
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

// Reconfigure makes members — this server first — the group's
// membership at epoch, which must exceed the current one. It is the one
// call that changes a group: it forms one, grows or shrinks it, and
// completes a promotion. The installed epoch is the quorum's membership
// too (Store.InstallEpoch): afterwards this primary's member senders are
// exactly the other members it lists, and commits are acknowledged once
// a majority of that group holds them. The membership in force picks
// the order:
//   - A member it does not list is attached first, as a learner the
//     commits running beside it neither wait for nor fail on, and caught
//     up — from the retained log, or by a pushed snapshot — so the
//     RecEpoch reaches it through the stream it joined. If one cannot be
//     caught up, the call fails with nothing installed, and the learners
//     are detached.
//   - A listed member with no sender — a promoted backup's peers, which
//     adopted the epoch out of band — is attached after the install, as
//     a voter (see followMembership).
//
// The server must be listening: its address is its member identity.
func (s *Server) Reconfigure(epoch uint64, members []string) error {
	if len(members) == 0 || members[0] != s.Addr() {
		return fmt.Errorf("kvserver: membership %v does not start with this server, %s", members, s.Addr())
	}
	listed := s.store.Members()
	var learners []string
	var joins []<-chan error
	for _, a := range members[1:] {
		if !slices.Contains(listed, a) {
			learners = append(learners, a)
			joins = append(joins, s.attach(a))
		}
	}
	var err error
	for i, a := range learners {
		if err = s.awaitJoin(a, joins[i]); err != nil {
			err = fmt.Errorf("kvserver: attaching backup %s: %w", a, err)
			break
		}
	}
	if err == nil {
		err = s.store.InstallEpoch(epoch, members)
	}
	s.followMembership()
	return err
}

// followMembership makes this server's member senders follow the
// membership in force. It detaches the sender of every member that
// membership does not list (an install already stopped them; this
// closes their connections). While this server leads it, it attaches
// each listed member that has no sender, as a voter, and waits until
// each holds the stream head or has failed a send: one that failed
// stays a voter, whose sender retries it until it answers.
func (s *Server) followMembership() {
	members := s.store.Members()
	var drop, add []string
	s.mirrorMu.Lock()
	for a := range s.mirrorConns {
		if !slices.Contains(members, a) {
			drop = append(drop, a)
		}
	}
	for _, a := range members[1:] {
		if members[0] == s.Addr() && s.mirrorConns[a] == nil {
			add = append(add, a)
		}
	}
	s.mirrorMu.Unlock()
	for _, a := range drop {
		s.detach(a)
	}
	joins := make([]<-chan error, len(add))
	for i, a := range add {
		joins[i] = s.attach(a)
	}
	for i, a := range add {
		_ = s.awaitJoin(a, joins[i]) // a failed member stays a voter, retried by its sender
	}
}

// attach starts a member sender for the backup at addr (see
// Store.AttachMirrorMember) on its own connection, and returns the
// channel that answers its join. Each member's accepted batches,
// heartbeats included, are its lease grants.
func (s *Server) attach(addr string) <-chan error {
	mc := &mirrorConn{addr: addr}
	mc.ctx, mc.cancel = context.WithCancel(context.Background())
	s.mirrorMu.Lock()
	if s.mirrorConns == nil {
		s.mirrorConns = make(map[string]*mirrorConn)
	}
	s.mirrorConns[addr] = mc
	s.mirrorMu.Unlock()
	return s.store.AttachMirrorMember(addr, func(req *kv.MirrorBatchReq) error {
		return s.mirrorCall(mc, req)
	})
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

// detach stops the member sender for addr and closes its connection.
// Waiters are re-judged against the remaining members' quorum.
func (s *Server) detach(addr string) {
	s.store.detachMembers(func(m *mirrorMember) bool { return m.id == addr })
	s.mirrorMu.Lock()
	if mc, ok := s.mirrorConns[addr]; ok {
		mc.closeLocked()
		delete(s.mirrorConns, addr)
	}
	s.mirrorMu.Unlock()
}

// detachAll removes every member sender; in-flight durability waiters
// fail (they are uncertain, not acked).
func (s *Server) detachAll() {
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
	s.detachAll()
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
