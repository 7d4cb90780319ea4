package kvclient

import (
	"context"
	"errors"
	"time"

	"yesquel/internal/kv"
)

// NumServers returns the number of placement slots OIDs spread across:
// the directory's fixed route count — frozen at cluster formation,
// unchanged by scale-out — so placement computed from it (dbt root
// OIDs) stays stable when servers join.
func (c *Client) NumServers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dir.Routes)
}

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
		c.groups = append(c.groups, &replicaGroup{addrs: append([]string(nil), d.Groups[gi]...)})
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
