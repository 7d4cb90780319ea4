package kvclient

import (
	"context"
	"fmt"
	"slices"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// readItems is the one read path: it answers items at snap into out,
// positionally (an absent object leaves Found=false, never an error),
// in one round of one RPC per owning group. Items of one group go out on
// the calling goroutine with nothing built around them. When several
// groups fail, the first group's error is returned.
func (c *Client) readItems(ctx context.Context, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	if len(items) == 0 {
		return nil
	}
	c.readRounds.Add(1)
	server := c.ServerFor(items[0].OID)
	spread := false
	for i := 1; i < len(items) && !spread; i++ {
		spread = c.ServerFor(items[i].OID) != server
	}
	if !spread {
		return c.readGroup(ctx, server, snap, items, out)
	}
	// One part per group, in order of first appearance (few groups: a
	// linear search), each with its items and where their answers go.
	type part struct {
		server int
		idx    []int
		items  []kv.ReadBatchItem
		res    []kv.ReadBatchResult
		err    error
	}
	var parts []part
	for i := range items {
		s := c.ServerFor(items[i].OID)
		at := slices.IndexFunc(parts, func(p part) bool { return p.server == s })
		if at < 0 {
			at, parts = len(parts), append(parts, part{server: s})
		}
		parts[at].idx = append(parts[at].idx, i)
		parts[at].items = append(parts[at].items, items[i])
	}
	fanOut(len(parts), func(i int) {
		p := &parts[i]
		p.res = make([]kv.ReadBatchResult, len(p.items))
		p.err = c.readGroup(ctx, p.server, snap, p.items, p.res)
	})
	for _, p := range parts {
		if p.err != nil {
			return p.err
		}
		for j, i := range p.idx {
			out[i] = p.res[j]
		}
	}
	return nil
}

// ReadRounds counts the read rounds this client has made, one per
// readItems call. A round is one message delay however many items and
// groups it spans, so rounds — not the servers' count of items read —
// are what a caller waits for.
func (c *Client) ReadRounds() uint64 { return c.readRounds.Load() }

// readGroup fetches items — all owned by group server — at snap with
// one RPC to the group's primary, and files the clock the response
// carries. The encoding follows the input's size: one item travels as
// a MethodReadPart call, several as a MethodReadBatch.
func (c *Client) readGroup(ctx context.Context, server int, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	one := len(items) == 1
	method := kv.MethodReadBatch
	if one {
		method = kv.MethodReadPart
	}
	respB, _, err := c.call(ctx, server, method, func(epoch uint64) []byte {
		if one {
			return (&kv.ReadPartReq{Snap: snap, Epoch: epoch, Item: items[0]}).Encode()
		}
		return (&kv.ReadBatchReq{Snap: snap, Epoch: epoch, Items: items}).Encode()
	})
	if err != nil {
		return err
	}
	if one {
		resp, err := kv.DecodeReadPartResp(respB)
		if err != nil {
			return err
		}
		out[0] = kv.ReadBatchResult{Found: resp.Found, Version: resp.Version, Value: resp.Value, Total: resp.Total}
		c.hlc.Observe(resp.Clock)
		return nil
	}
	resp, err := kv.DecodeReadBatchResp(respB)
	if err != nil {
		return err
	}
	if len(resp.Results) != len(items) {
		return fmt.Errorf("kvclient: read batch answered %d of %d items", len(resp.Results), len(items))
	}
	copy(out, resp.Results)
	c.hlc.Observe(resp.Clock)
	return nil
}
