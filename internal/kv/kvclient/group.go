package kvclient

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
// or a wrong-epoch redirect. The current connection is kept only if it
// points at the new primary; otherwise the group redials preferring the
// new members[0].
func (g *replicaGroup) noteEpoch(epoch uint64, members []string) {
	if len(members) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch <= g.epoch {
		return
	}
	g.epoch = epoch
	g.addrs = append([]string(nil), members...)
	g.cur = 0
	if g.conn != nil && g.connAddr != members[0] {
		g.conn.Close()
		g.conn = nil
	}
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
}
