package dbt

import (
	"bytes"
	"context"
	"fmt"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Check walks the whole tree at tx's snapshot and verifies its
// structural invariants. It is used by tests (including property
// tests) and by operators debugging a cluster; it reads every node, so
// do not run it on a hot production tree casually.
//
// Invariants verified:
//
//  1. every node belongs to this tree and is a supervalue;
//  2. heights decrease by exactly one per level, reaching 0 at leaves;
//  3. a node's cells are strictly sorted and lie inside its fences;
//  4. a child's fence interval is exactly the range its parent routes
//     to it (low = routing cell key, high = next routing key or the
//     parent's high fence);
//  5. inner nodes have at least one child; child pointers resolve;
//  6. leaf fence intervals tile the key space: consecutive leaves meet
//     exactly, starting at -inf and ending at +inf.
//
// It returns tree-wide statistics.
type CheckResult struct {
	Height       uint64
	Nodes        int
	Leaves       int
	Cells        int // cells in leaves (rows)
	MaxLeafCells int // cells in the fullest leaf
	MinFanout    int // of inner nodes
	MaxFanout    int
}

// Check verifies the tree's invariants at tx's snapshot.
func (t *Tree) Check(ctx context.Context, tx *kvclient.Tx) (*CheckResult, error) {
	root, err := tx.Read(ctx, t.root)
	if err != nil {
		return nil, fmt.Errorf("dbt: check: reading root: %w", err)
	}
	res := &CheckResult{Height: root.Attrs[AttrHeight], MinFanout: int(^uint(0) >> 1)}
	var leafLow []byte // expected low fence of the next leaf; nil means -inf expected first
	first := true
	var walk func(oid kv.OID, node *kv.Value, low, high []byte) error
	walk = func(oid kv.OID, node *kv.Value, low, high []byte) error {
		if node.Kind != kv.KindSuper {
			return fmt.Errorf("dbt: check: node %v is not a supervalue", oid)
		}
		if node.Attrs[AttrTree] != t.id {
			return fmt.Errorf("dbt: check: node %v belongs to tree %d", oid, node.Attrs[AttrTree])
		}
		res.Nodes++
		if !bytes.Equal(node.LowKey, low) || !bytes.Equal(node.HighKey, high) {
			return fmt.Errorf("dbt: check: node %v fences [%q,%q) want [%q,%q)",
				oid, node.LowKey, node.HighKey, low, high)
		}
		for i, c := range node.Cells {
			if i > 0 && bytes.Compare(node.Cells[i-1].Key, c.Key) >= 0 {
				return fmt.Errorf("dbt: check: node %v cells out of order at %d", oid, i)
			}
			if !node.InBounds(c.Key) {
				return fmt.Errorf("dbt: check: node %v cell %q outside fences", oid, c.Key)
			}
		}
		h := node.Attrs[AttrHeight]
		if h == 0 {
			res.Leaves++
			res.Cells += node.NumCells()
			res.MaxLeafCells = max(res.MaxLeafCells, node.NumCells())
			// Leaf tiling.
			if first {
				if len(node.LowKey) != 0 {
					return fmt.Errorf("dbt: check: first leaf low fence %q, want -inf", node.LowKey)
				}
				first = false
			} else if !bytes.Equal(node.LowKey, leafLow) {
				return fmt.Errorf("dbt: check: leaf gap: expected low %q, got %q", leafLow, node.LowKey)
			}
			leafLow = node.HighKey
			return nil
		}
		// Inner node.
		if node.NumCells() == 0 {
			return fmt.Errorf("dbt: check: inner node %v has no children", oid)
		}
		if node.NumCells() < res.MinFanout {
			res.MinFanout = node.NumCells()
		}
		if node.NumCells() > res.MaxFanout {
			res.MaxFanout = node.NumCells()
		}
		// First routing key must equal the node's low fence.
		lowCell := node.LowKey
		if lowCell == nil {
			lowCell = []byte{}
		}
		if !bytes.Equal(node.Cells[0].Key, lowCell) {
			return fmt.Errorf("dbt: check: inner %v first routing key %q != low fence %q",
				oid, node.Cells[0].Key, lowCell)
		}
		for i, c := range node.Cells {
			childO, err := childOID(c)
			if err != nil {
				return fmt.Errorf("dbt: check: inner %v cell %d: %w", oid, i, err)
			}
			child, err := tx.Read(ctx, childO)
			if err != nil {
				return fmt.Errorf("dbt: check: child %v of %v: %w", childO, oid, err)
			}
			if child.Attrs[AttrHeight] != h-1 {
				return fmt.Errorf("dbt: check: child %v height %d under parent height %d",
					childO, child.Attrs[AttrHeight], h)
			}
			childLow := c.Key
			var childHigh []byte
			if i+1 < node.NumCells() {
				childHigh = node.Cells[i+1].Key
			} else {
				childHigh = node.HighKey
			}
			if err := walk(childO, child, childLow, childHigh); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, root, []byte{}, nil); err != nil {
		return nil, err
	}
	if leafLow != nil {
		return nil, fmt.Errorf("dbt: check: last leaf high fence %q, want +inf", leafLow)
	}
	if res.MinFanout == int(^uint(0)>>1) {
		res.MinFanout = 0
	}
	return res, nil
}
