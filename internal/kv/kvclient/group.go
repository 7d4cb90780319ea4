package kvclient

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/rpc"
)

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
