package kvclient

import (
	"context"

	"yesquel/internal/kv"
)

// NumServers returns the number of placement slots OIDs spread across:
// the slot directory's route count, fixed at cluster formation, so
// placement computed from it (dbt root OIDs) holds for the cluster's
// lifetime.
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

// adoptDirectory installs d as the client's routing directory if it is
// newer than the adopted one, creating replica groups for any group
// index the client has not seen yet. The directory's address lists
// seed those NEW groups only; a group the client already tracks keeps
// its epoch-learned membership (the directory is advisory about who
// serves a group — epoch state is authoritative).
func (c *Client) adoptDirectory(d *kv.Directory) {
	if d == nil || len(d.Routes) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d.Version <= c.dir.Version {
		return
	}
	d = d.Clone()
	for gi := len(c.groups); gi < len(d.Groups); gi++ {
		c.groups = append(c.groups, &replicaGroup{addrs: append([]string(nil), d.Groups[gi]...)})
	}
	c.dir = d
}

// FetchDirectory fetches the slot directory from server's group and
// adopts it if newer. The directory is fixed at cluster formation, so a
// client fetches it once, after it opens.
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
