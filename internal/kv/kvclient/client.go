// Package kvclient is the client library of Yesquel's transactional
// key-value storage system (the "client lib" box in Figure 1 of the
// paper). It connects to the storage servers, places objects by the
// server slot embedded in their OIDs, and runs transactions under
// snapshot isolation: buffered writes, first-committer-wins conflict
// detection, one-round-trip fast commit for single-participant
// transactions, and two-phase commit otherwise.
//
// Every call follows one retry table (commitcore.go), by method and by
// how the attempt failed. A refused request was not executed and is
// sent again; a lost request and a lost reply look alike to a client, so
// only idempotent calls are re-sent after an attempt that got no reply.
// A prepare never is — re-sent to another member it could stage the
// transaction twice, so the transaction aborts — and nor is a fast
// commit, which may have been applied: it fails with kv.ErrUncertain.
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
)

// Client is a connection to a set of storage servers. It is safe for
// concurrent use; transactions created from it are not (a transaction
// belongs to one goroutine, as in the paper's per-client query
// processor).
type Client struct {
	// groups is the group list the client was opened with (group i owns
	// the OIDs whose slot is i modulo its length); it never changes, so
	// routing takes no lock.
	groups     []*replicaGroup
	hlc        *clock.HLC
	nextTx     atomic.Uint64
	nextOID    atomic.Uint64
	readRounds atomic.Uint64 // see ReadRounds
	hbMu       sync.Mutex    // guards hbStop, which stops the heartbeat
	hbStop     chan struct{}
}

// Open dials every storage server, one replica per slot: an OID with
// slot s lives on addrs[s % len(addrs)]. OpenReplicated has failover.
func Open(addrs []string) (*Client, error) {
	groups := make([][]string, len(addrs))
	for i, a := range addrs {
		groups[i] = []string{a}
	}
	return OpenReplicated(groups)
}

// OpenReplicated dials a cluster of replicated server slots: groups[s]
// lists the replica addresses for slot s, preferred (primary) first. An
// OID lives in group slot % len(groups) (kv.OID.Group), so the list must
// be the cluster's groups in the cluster's order; a group refuses an OID
// it does not own with kv.ErrWrongSlot. Each group follows its own
// membership, learned from the servers. Open merges every server's
// clock into the client's before the first transaction: a fresh client's
// wall clock may trail the servers' hybrid logical clocks, and a
// snapshot below already-committed timestamps would miss that data.
func OpenReplicated(groups [][]string) (*Client, error) {
	if len(groups) == 0 {
		return nil, errors.New("kvclient: no servers")
	}
	c := &Client{hlc: clock.New()}
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
		c.groups = append(c.groups, &replicaGroup{addrs: addrs})
	}
	ctx := context.Background()
	for s := range c.groups {
		// One ping per slot merges its clock and learns its epoch and
		// membership; any member answers it, a backup too.
		if err := c.Ping(ctx, s); err != nil {
			c.Close()
			return nil, fmt.Errorf("kvclient: merging clock of server %d: %w", s, err)
		}
	}
	for _, g := range c.groups {
		if g.size() > 1 {
			c.StartHeartbeat(DefaultHeartbeatInterval)
			break
		}
	}
	return c, nil
}

// DefaultHeartbeatInterval is how often StartHeartbeat pings.
const DefaultHeartbeatInterval = time.Second

// heartbeatTimeout bounds one heartbeat ping. A dead slot's dials are
// bounded apart (dialTimeout per replica), so slots are pinged
// concurrently: one dead slot must not starve the others' refresh.
const heartbeatTimeout = 2 * time.Second

// StartHeartbeat (re)starts the membership heartbeat: every interval the
// client pings each slot with several replicas, merging clocks and
// adopting the epoch and membership the ack carries. A busy client learns
// configuration changes from its traffic; an idle one that slept through
// a failover and the re-formation that retired every address it knew
// would wake up stranded. OpenReplicated starts it, at
// DefaultHeartbeatInterval, when some slot has several replicas (one
// that gains replicas later, by an ack, does not start it). An interval
// <= 0 stops it.
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
			// Waiting for the sweep keeps at most one in flight.
			var wg sync.WaitGroup
			for s, g := range c.groups {
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

// Close tears down all server connections.
func (c *Client) Close() error {
	c.StartHeartbeat(0)
	for _, g := range c.groups {
		g.close()
	}
	return nil
}

// Clock exposes the client's hybrid logical clock.
func (c *Client) Clock() *clock.HLC { return c.hlc }

// NewOID mints a fresh OID on server slot. Local ids combine a random
// per-client base with a counter, so distinct clients do not collide.
func (c *Client) NewOID(slot uint16) kv.OID {
	return kv.MakeOID(slot, c.nextOID.Add(1))
}
