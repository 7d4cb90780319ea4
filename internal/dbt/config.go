// Package dbt implements YDBT, Yesquel's distributed balanced tree —
// the paper's storage engine (box 2 in Figure 1). A tree is a B+-tree
// whose nodes are supervalues in the transactional key-value store, so
// every structural change (a split, a root grow) is an ordinary
// distributed transaction and is atomic by construction: "the Yesquel
// DBT uses transactions to atomically move data across DBT nodes".
//
// Performance mechanisms (caching, deltas and partial leaf reads are
// each switchable for the ablation benchmark, BenchmarkAblation):
//
//   - Client-side caching of inner nodes. Descents consult the cache
//     without any server communication; only the leaf is read
//     transactionally. A handle caches at most 4,096 nodes and admits
//     one past that by evicting a random entry.
//   - Back-down searches. Cached nodes may be stale; the leaf's fence
//     keys expose staleness, and the search invalidates the cached path
//     and descends again with transactional reads.
//   - Delta operations. Inserts and deletes stage one-cell supervalue
//     deltas (ListAdd / ListDelRange) instead of rewriting the node.
//   - Splits in their own transactions. The writer whose commit grew a
//     node past MaxCells splits it, and whatever that split leaves over
//     the limit, in separate transactions before its Commit returns, so
//     no user transaction carries structural work (see "Write
//     statements"). Each split is one read round and its commit.
//
// # Write statements
//
// A write statement that knows its keys beforehand — a SQL INSERT, UPDATE
// or DELETE once its rows are evaluated — reads nothing at all when it
// needs no stored row and the inner-node cache routes every key: an
// INSERT, or an UPDATE or DELETE of one whole row by key. Each write is
// staged on the leaf the cache names (RoutePut, RouteDelete; the root
// itself while the handle last found it a leaf) with kv compare ops that
// the commit checks at the newest version under the leaf's lock: the
// route compares, once per leaf for the whole statement (the leaf's
// fences still cover every key the statement routed there, it is still a
// leaf of this tree, and, once its last new key is staged, it holds at
// most a hard cap of twice MaxCells), and what the statement requires of
// each key (free, or stored), just before that key's write; a UNIQUE
// probe becomes a compare that a key range is empty, on every leaf the
// range spans (RouteAbsent). The commit is then the statement's one round
// trip, as the delta ops made it the paper's one round trip for a blind
// insert, and its reply says how many cells each leaf the statement added
// to ended with. A stale route, or a leaf at the hard cap, fails a route
// compare and changes nothing: the statement runs again on the read path
// below, where the descent backs down and Put splits what it grows.
// Ablated handles never route.
//
// The read path is for everything else, and for a key the cache cannot
// route: one read round, then the operations. The writer asks each tree
// for the leaf read each Get, Put or Delete will make (PlanPoint: a walk
// of the inner-node cache to the leaf's parent) and for the first round of
// each existence probe, a scan of one cell (PlanScan), sends the reads of
// all its trees as one round (kvclient.Tx.Prefetch) and then performs the
// operations unchanged: their descents find the leaf reads answered in the
// transaction's read set, which keeps them until the statement ends,
// whatever else the statement plans. The plan is routing only. A key the
// cache cannot route plans nothing; a stale route names the wrong leaf,
// the operation's descent sees the fence miss, backs down and reads what
// it needs: a wasted read, never a misplaced row. GetBatch is the same
// thing for reads of one tree. The existence probes (Probe) still end in
// compares on the leaves they read, since a key free at the snapshot may
// be taken by the time the transaction commits.
//
// Such a writer's transaction is at most one read round and a commit,
// which is no longer than a split (read the leaf and the path to its
// parent, commit across two servers), and a split conflicts with every commit on its node
// since it began. A split racing a leaf's writers from elsewhere never
// wins under steady insertion, the leaf grows without bound and every
// commit on it costs more than the last (measured: a 10,000-row load made
// 8 of its 150 splits and ran slower than with one read per row). So the
// writer whose Put grew a leaf past MaxCells splits it itself once it
// has committed (kvclient.Tx.OnCommit), before its Commit returns. That
// fails nothing and dooms nothing: Put never refuses a write, a
// transaction that aborts asks for no split, and the writer's next
// transaction starts at a snapshot that has the split in it — from a
// cache that has it too, the split having cached the router as it left
// it. A write staged by routing splits the same way: the leaf it added to
// may end its commit past MaxCells (never past the hard cap), the commit
// reply says so, and the writer splits it before its Commit returns. So
// a leaf that fills costs its writer the split and nothing else — no
// failed commit, no second run of the statement. A split is one read
// round (the leaf and the cached path to its parent, prefetched together)
// and its commit. Writers that grow no leaf past its limit, readers, and
// other clients never split.
//
// # Scan plans
//
// An iterator is given the Range its consumer needs — low key, high
// key, expected cell count — and every leaf read is windowed to it, so
// a scan that one leaf can answer is one leaf read and nothing else. A
// scan that needs more leaves reads them the way a write statement reads
// its rows' leaves: planned, in one round. When the iterator needs a
// leaf and holds none it walks the inner-node cache to the leaf's parent,
// whose cells name the leaves that follow and the key each begins at,
// and reads in one round (kvclient.Tx.ReadBatch: one RPC per server, the
// servers in parallel) every leaf the rest of the scan is more likely
// than not to touch: the children whose separators lie below the range's
// Hi, and of those, while a Limit is outstanding, as many as the wanted
// cells reach into if a leaf holds MaxCells/2 — what a split leaves, so
// the estimate errs towards reading a leaf too many, each capped at the
// wanted cells, rather than paying a second round. A scan with neither
// Hi nor Limit doubles its run from round to round (1, 2, 4, …, each
// ending at its parent's last child): a consumer that stops early has
// over-read no more than it consumed, and one that reads a whole tree
// makes a round or two per parent. The rule has no knob because
// everything it depends on — the range, the Limit, the split threshold,
// the parent's separators — is in the iterator's hands when it plans. Hi
// is a hard bound; Limit only sizes reads — iterating past it stays
// correct and simply costs further rounds.
// The plan is routing only. The iterator takes the fetched leaves in
// chain order and checks of each what a descent checks of the leaf it
// arrives at (found, this tree's, a leaf, fences around the key wanted);
// the first that fails drops the rest of the run, and the ordinary
// validated descent backs down and reads what the scan needs. A stale or
// cold cache costs a wasted round at worst, never a row.
// A transaction with staged writes scans leaf by leaf, uncapped, through
// its overlay (a leaf fetched ahead, or cut short by a cap, cannot show
// writes staged since); scanWindow is that rule, for the iterator and
// its planner alike.
// A caller that will read more once a scan has answered — sql's index
// lookup, which has a guess at the rows, or a write statement's UNIQUE
// probe — asks for the scan's first round beforehand (PlanScan, the same
// leaf naming) and sends it with its own reads as one Prefetch; the
// iterator, unchanged, finds the round in the transaction's read set.
package dbt

import "yesquel/internal/kv"

// Supervalue attribute slots used for tree nodes.
const (
	// AttrHeight is 0 for leaves and grows toward the root.
	AttrHeight = 0
	// AttrTree holds the tree id, for integrity checking. (Slot 1 is
	// unused: scans navigate by fence keys.)
	AttrTree = 2
)

// Config tunes one tree handle: its split threshold and the paper's
// ablation switches. The zero value gives the full Yesquel behaviour.
type Config struct {
	// MaxCells is the split threshold: a node holding more cells gets
	// split, by the writer whose commit grew it, before that writer's
	// Commit returns. A write staged by routing may grow a leaf to twice
	// MaxCells, a hard cap its commit checks, before the split. Default
	// 128.
	MaxCells int

	// NoCache disables the client-side inner-node cache: every descent
	// reads every level transactionally (ablation a).
	NoCache bool

	// NoDelta disables delta operations: updates read the whole leaf
	// and write it back with Put (ablation b).
	NoDelta bool

	// NoPartial disables partial node reads: every leaf access ships
	// the whole node over the network instead of just the cells the
	// operation needs (ablation d).
	NoPartial bool
}

func (c Config) withDefaults() Config {
	if c.MaxCells == 0 {
		c.MaxCells = 128
	}
	return c
}

// maxDescentAttempts bounds the tries of one descent: the first ones
// route through the inner-node cache, backing down on a stale route, and
// the last two read every level transactionally.
const maxDescentAttempts = 6

// cacheMaxNodes caps a handle's inner-node cache in entries. When full,
// admitting a fresh node evicts a random resident one — eviction order
// does not matter for correctness (stale entries are caught by fence
// checks either way), so cheap beats clever. A variable so tests can
// force eviction on a small tree.
var cacheMaxNodes = 4096

// Ablated reports whether any of the paper's ablation switches is
// active; an ablated handle plans nothing (routeFromCache).
func (c Config) Ablated() bool {
	return c.NoCache || c.NoDelta || c.NoPartial
}

// NaiveConfig returns the configuration of the naive-DBT baseline used
// in the ablation benchmarks: no caching, no deltas, no partial reads.
// Every descent reads every level, whole, over the network.
func NaiveConfig() Config {
	return Config{NoCache: true, NoDelta: true, NoPartial: true}
}

// RootOID returns the well-known OID of the root node of tree id for a
// cluster with numServers servers. Roots use a reserved local-id range
// (top local bit set) so they never collide with allocated node ids.
//
// numServers must be stable for a given cluster or different clients
// would disagree on where tree roots live. Client.NumServers provides
// that stability: it reports the cluster's group count, which is fixed
// at cluster formation, so root OIDs (and the slots of round-robin
// placed nodes) stay valid for the cluster's lifetime.
func RootOID(id uint64, numServers int) kv.OID {
	slot := uint16(id % uint64(numServers))
	return kv.MakeOID(slot, 1<<46|id&((1<<46)-1))
}
