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
)

// Client is a connection to a set of storage servers. It is safe for
// concurrent use; transactions created from it are not (a transaction
// belongs to one goroutine, as in the paper's per-client query
// processor).
type Client struct {
	// groups is the group list the client was opened with, group i
	// owning every OID whose slot is i modulo its length. It never
	// changes, so routing takes no lock; each group follows its own
	// membership (replicaGroup).
	groups []*replicaGroup

	hlc *clock.HLC

	nextTx  atomic.Uint64
	nextOID atomic.Uint64

	readRounds atomic.Uint64 // see ReadRounds

	// hbStop terminates the membership heartbeat goroutine (see
	// StartHeartbeat); hbMu guards restarts.
	hbMu   sync.Mutex
	hbStop chan struct{}
}

// Open dials every storage server. The order of addrs defines server
// slots: an OID with slot s lives on addrs[s % len(addrs)]. Each slot
// has a single replica; use OpenReplicated for failover.
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
// it does not own with kv.ErrWrongSlot. The list never changes after
// Open: each group follows its own membership, learned from the servers.
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

// StopHeartbeat stops the background membership heartbeat.
func (c *Client) StopHeartbeat() { c.StartHeartbeat(0) }

// Close tears down all server connections.
func (c *Client) Close() error {
	c.StopHeartbeat()
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
