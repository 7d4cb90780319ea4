package kvclient

import (
	"context"

	"yesquel/internal/kv"
)

// NumServers returns the number of groups OIDs spread across: the length
// of the group list the client was opened with. A cluster's group count
// is fixed when it forms, so placement computed from it (dbt root OIDs)
// holds for the cluster's lifetime.
func (c *Client) NumServers() int { return len(c.groups) }

// ServerFor maps an OID to the index of the replica group that owns it:
// its slot modulo the group count (kv.OID.Group).
func (c *Client) ServerFor(oid kv.OID) int { return oid.Group(len(c.groups)) }

// FetchDirectory pings server's group. Placement is arithmetic, so there
// is no directory to fetch; the method is kept only because the repo
// benchmark calls it after it opens a client.
func (c *Client) FetchDirectory(ctx context.Context, server int) error {
	return c.Ping(ctx, server)
}
