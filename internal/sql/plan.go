package sql

import (
	"context"
	"errors"
	"fmt"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Access-path planning. The planner is deliberately modest — Web
// workloads are point lookups, short range scans, and small joins — but
// it picks the three access paths that matter:
//
//	pkEq:     WHERE pk = e        -> one DBT Get
//	pkRange:  WHERE pk <op> e ... -> bounded DBT scan
//	idxRange: range predicates on an indexed column -> bounded scan of
//	          the index tree, then row fetches by primary key
//	idxEq:    WHERE indexed = e   -> the same scan and fetches, both
//	          answered by one read round when the value has been looked
//	          up before: the rows it named then are asked for along with
//	          the index (indexHints)
//	full:     everything else    -> full table scan
//
// Each row a path yields is checked against the conjuncts the path was
// planned from, its row filter, so access paths are pure optimizations
// and cannot change results. The check is skipped only where it could
// reject nothing: a primary-key range that holds exactly the rows its
// conjuncts admit (keyRange.implied). The range a path needs — low key,
// high key, and, when the path accounts for every conjunct, the
// statement's row limit — travels down to the leaf reads as a dbt.Range,
// so no layer fetches more than the statement can use.
//
// A SELECT, UPDATE or DELETE is planned once, before its first read, into
// a stmtPlan, and every name in it is resolved there, once. Which table a
// column belongs to is env.refDepth's rule, which places each conjunct on
// a table and says whether a bound can be evaluated before a table's
// scan. How an expression is evaluated is rewriteAggs': the plan lists
// the aggregates, and its items, HAVING and ORDER BY read each as an
// aggRef. What a GROUP BY or ORDER BY term names is stmtPlan.resolve's
// rule. The executor (execSelect, collectMatches), the sort, the
// aggregator and EXPLAIN (execExplain) read that one resolution. Nothing
// else plans.

// A stmtPlan is how a statement reads: its tables in join order, and,
// for a SELECT, what becomes of the joined rows.
type stmtPlan struct {
	e      env // the tables' bindings and the statement's parameters
	tables []tablePlan

	// The rest is a SELECT's: its items (* expanded, aggregates rewritten)
	// and output column names; its GROUP BY terms, aggregates and HAVING,
	// and whether it aggregates; the sort left once the scan's own order is
	// accounted for (scanOrdered); how many joined rows the scans need
	// produce (earlyLimit; -1 for all) or why its LIMIT could not say; and
	// whether a projected row is row[lo:hi] of its one table's (columnRun).
	items    []SelectItem
	columns  []string
	groupBy  []Expr
	aggs     []Call
	having   Expr
	agg      bool
	orderBy  []orderKey
	early    int
	limitErr error
	lo, hi   int
	sliced   bool
}

// An orderKey is one ORDER BY term as the plan resolved it: output column
// col, or, with col < 0, e over the joined row.
type orderKey struct {
	col  int
	e    Expr
	desc bool
}

// A tablePlan is one table of a statement's plan.
type tablePlan struct {
	binding // the table's alias and schema, and the row its scan has bound
	table   *Table
	path    accessPath
	// conj is the conjuncts decidable once this table is bound, those of
	// the tables before it having been: what path was planned from, and the
	// filter every row it yields must pass (see scanTable).
	conj []Expr
	// limit is how many rows the statement can use from the table's scan
	// if every row it yields counts (0 = no limit). Only the scan of a
	// single-table query yields one row per joined row; whether each also
	// passes the predicates is the path's business (accessPath.scanLimit).
	limit int
}

// planTables plans the tables from and joins name, in join order, under
// the conjuncts of where and of every ON. Each conjunct goes to the table
// at whose depth it becomes decidable (env.depth), which resolves every
// column it names, and each table's path is planned from its own
// conjuncts, the tables before it being outer. With from nil the plan has
// no tables, and its WHERE's columns still must resolve.
func (db *DB) planTables(ctx context.Context, tx *kvclient.Tx, from *TableRef, joins []Join, where Expr, args []Value) (stmtPlan, error) {
	p := stmtPlan{e: env{params: args}, early: -1}
	conj := conjuncts(where, nil)
	for _, j := range joins {
		conj = conjuncts(j.On, conj)
	}
	if from != nil {
		p.tables = make([]tablePlan, 1+len(joins))
		p.e.bindings = make([]*binding, len(p.tables))
		for i := range p.tables {
			r := *from
			if i > 0 {
				r = joins[i-1].Right
			}
			table, err := db.cat.GetTable(ctx, tx, r.Name)
			if err != nil {
				return stmtPlan{}, err
			}
			alias := r.Alias
			if alias == "" {
				alias = r.Name
			}
			p.tables[i] = tablePlan{binding: binding{alias: alias, schema: table.Schema}, table: table}
			p.e.bindings[i] = &p.tables[i].binding
		}
	}
	for _, c := range conj {
		d, err := p.e.depth(c)
		if err != nil {
			return stmtPlan{}, err
		}
		if len(p.tables) > 1 {
			p.tables[d-1].conj = append(p.tables[d-1].conj, c)
		}
	}
	if len(p.tables) == 1 {
		p.tables[0].conj = conj // every one, in its own array
	}
	for i := range p.tables {
		p.tables[i].path = planAccess(&p.e, i, p.tables[i].conj)
	}
	return p, nil
}

// planSelect plans st: its tables, and what becomes of the joined rows.
func (db *DB) planSelect(ctx context.Context, tx *kvclient.Tx, st Select, args []Value) (stmtPlan, error) {
	p, err := db.planTables(ctx, tx, st.From, st.Joins, st.Where, args)
	if err != nil {
		return stmtPlan{}, err
	}
	if p.items, p.columns, err = expandItems(st.Items, &p.e); err != nil {
		return stmtPlan{}, err
	}
	if err := p.resolve(st); err != nil {
		return stmtPlan{}, err
	}
	single := len(p.tables) == 1 && !p.agg
	if single && !st.Distinct && p.scanOrdered() {
		p.orderBy = nil // scan order == requested order
	}
	p.early, p.limitErr = earlyLimit(&p.e, st, p.agg || len(p.orderBy) > 0)
	if len(p.tables) == 1 && p.early >= 0 {
		p.tables[0].limit = max(p.early, 1)
	}
	if single && len(p.orderBy) == 0 {
		p.lo, p.hi, p.sliced = columnRun(p.items, &p.tables[0].binding)
	}
	return p, nil
}

type pathKind uint8

const (
	pathFull pathKind = iota
	pathPKEq
	pathPKRange
	pathIdxEq
	pathIdxRange
)

type bound struct {
	e    Expr
	incl bool
}

type accessPath struct {
	kind pathKind
	idx  int // position in Schema.Indexes for idx paths
	eq   Expr
	lo   *bound
	hi   *bound
	// exact reports that the path's bounds stand for every conjunct it
	// was planned from: each row the scan yields is a row of the result,
	// so a row limit may be handed to the scan.
	exact bool
}

// conjuncts flattens nested ANDs.
func conjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(BinOp); ok && b.Op == "and" {
		out = conjuncts(b.L, out)
		return conjuncts(b.R, out)
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// keyPredicate matches a conjunct <col> <op> <expr> or <expr> <op> <col>
// where col is a column of binding i and expr names no table from i on,
// so that it can be evaluated before i's scan.
func keyPredicate(e *env, i int, c Expr) (col int, op string, rhs Expr, ok bool) {
	b, isBin := c.(BinOp)
	if !isBin {
		return -1, "", nil, false
	}
	if _, cmp := mirrored[b.Op]; !cmp {
		return -1, "", nil, false
	}
	if col, ok := e.column(b.L, i); ok && e.before(b.R, i) {
		return col, b.Op, b.R, true
	}
	if col, ok := e.column(b.R, i); ok && e.before(b.L, i) {
		return col, mirrored[b.Op], b.L, true
	}
	return -1, "", nil, false
}

// mirrored maps each comparison x op y to the op' of y op' x.
var mirrored = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// planAccess chooses the access path for binding i given the WHERE/ON
// conjuncts decidable once it is bound, the bindings before it being
// bound already.
func planAccess(e *env, i int, conj []Expr) accessPath {
	schema := e.bindings[i].schema
	// loC and hiC are the positions in conj of the conjuncts the range
	// bounds came from (one BETWEEN can supply both). partial reports a
	// BETWEEN that supplied only one of its bounds, a comparison having
	// supplied the other: the bounds no longer stand for it.
	type colBounds struct {
		eq       Expr
		lo, hi   *bound
		loC, hiC int
		partial  bool
	}
	byCol := make(map[int]*colBounds)
	for j, c := range conj {
		col, op, rhs, ok := keyPredicate(e, i, c)
		if !ok {
			continue
		}
		cb := byCol[col]
		if cb == nil {
			cb = &colBounds{}
			byCol[col] = cb
		}
		switch op {
		case "=":
			cb.eq = rhs
		case ">":
			cb.lo, cb.loC = &bound{e: rhs}, j
		case ">=":
			cb.lo, cb.loC = &bound{e: rhs, incl: true}, j
		case "<":
			cb.hi, cb.hiC = &bound{e: rhs}, j
		case "<=":
			cb.hi, cb.hiC = &bound{e: rhs, incl: true}, j
		}
	}
	// Also treat BETWEEN as a range.
	for j, c := range conj {
		bt, ok := c.(Between)
		if !ok || bt.Not || !e.before(bt.Lo, i) || !e.before(bt.Hi, i) {
			continue
		}
		col, ok := e.column(bt.E, i)
		if !ok {
			continue
		}
		cb := byCol[col]
		if cb == nil {
			cb = &colBounds{}
			byCol[col] = cb
		}
		if cb.lo == nil {
			cb.lo, cb.loC = &bound{e: bt.Lo, incl: true}, j
		}
		if cb.hi == nil {
			cb.hi, cb.hiC = &bound{e: bt.Hi, incl: true}, j
		}
		if (cb.loC == j) != (cb.hiC == j) {
			cb.partial = true
		}
	}

	// pathFor builds the path over one column's bounds; it is exact when
	// the conjuncts behind the bounds it uses are all there are, and the
	// bounds stand for the whole of each.
	pathFor := func(cb *colBounds, eqKind, rangeKind pathKind, idx int) (accessPath, bool) {
		switch {
		case cb == nil:
		case cb.eq != nil:
			return accessPath{kind: eqKind, idx: idx, eq: cb.eq, exact: len(conj) == 1}, true
		case cb.lo != nil || cb.hi != nil:
			used := 1
			if cb.lo != nil && cb.hi != nil && cb.loC != cb.hiC {
				used = 2
			}
			return accessPath{kind: rangeKind, idx: idx, lo: cb.lo, hi: cb.hi, exact: len(conj) == used && !cb.partial}, true
		}
		return accessPath{}, false
	}
	// Primary key first: it avoids the extra index hop.
	if schema.PKCol >= 0 {
		if p, ok := pathFor(byCol[schema.PKCol], pathPKEq, pathPKRange, 0); ok {
			return p
		}
	}
	for j, is := range schema.Indexes {
		if p, ok := pathFor(byCol[is.ColIdx], pathIdxEq, pathIdxRange, j); ok {
			return p
		}
	}
	return accessPath{kind: pathFull, exact: len(conj) == 0}
}

// scanLimit is the row limit to hand to the path's scan, given the
// limit the statement allows (0 = none): a UNIQUE index holds at most
// one entry per value, whatever the statement says.
func (p accessPath) scanLimit(table *Table, limit int) int {
	if p.kind == pathIdxEq && table.Schema.Indexes[p.idx].Unique {
		return 1
	}
	if !p.exact {
		return 0
	}
	return limit
}

// rowVisitor receives each row that passes the path's filter; returning
// false stops the scan.
type rowVisitor func(rowKey []byte, row []Value) (bool, error)

// keyCol is the position in schema of the column the path's keys
// encode, or -1 for a full scan.
func (p accessPath) keyCol(schema *TableSchema) int {
	switch p.kind {
	case pathPKEq, pathPKRange:
		return schema.PKCol
	case pathIdxEq, pathIdxRange:
		return schema.Indexes[p.idx].ColIdx
	}
	return -1
}

// keyRange is a path's bounds evaluated into the keys of its key column:
// a scan reads [lo, hi), a nil hi reading to the end.
type keyRange struct {
	lo, hi []byte
	// implied reports that the keys in [lo, hi) are exactly the rows the
	// path's conjuncts admit, so a row the scan yields needs no check.
	// That takes a primary-key path (an indexed column may hold NULLs,
	// whose keys sort below every value's and which no comparison
	// admits), an exact one (the bounds stand for every conjunct), and
	// bounds of the key's own class, whose keys order the rows as the
	// conjuncts compare them.
	implied bool
}

// evalKeyRange evaluates path's bounds for a key column of declared type
// ct. A NULL bound admits no row: the range is empty. A bound of the key's
// class — number, text or blob (typeRank) — is keyed as it is, a number
// of either type by its value (2.5 on an INTEGER key). ok=false means the
// scan cannot be keyed: a range bound of another class, whose keys say
// nothing about the rows the comparison admits (Compare ranks every number
// below every text, so no number is >= '7'), or a bound that does not
// coerce to ct. The caller falls back to a full scan and leaves the
// decision to the row filter. An equality of another class is keyed by
// the value it coerces to: every row equal to the value has that key, and
// the row filter rejects those that are not equal ('7' on an INTEGER key
// reads row 7).
func evalKeyRange(e *env, path accessPath, ct Type) (r keyRange, ok bool, err error) {
	var keys [2]Value
	exprs := [2]Expr{path.eq}
	if path.eq == nil {
		if path.lo != nil {
			exprs[0] = path.lo.e
		}
		if path.hi != nil {
			exprs[1] = path.hi.e
		}
	}
	sameClass := true // every bound is of the key's class
	for i, x := range exprs {
		if x == nil {
			continue
		}
		v, err := e.eval(x)
		if err != nil {
			return r, false, err
		}
		cv, err := Coerce(v, ct)
		switch {
		case err != nil:
			return r, false, nil
		case cv.IsNull():
			return keyRange{lo: []byte{}, hi: []byte{}}, true, nil
		case typeRank(v.T) == typeRank(ct):
			cv = v // by its value: Coerce would round 2^53 + 1 into a REAL column
		case path.eq == nil:
			return r, false, nil
		default:
			sameClass = false
		}
		keys[i] = cv
	}
	switch {
	case path.eq != nil:
		r.lo = EncodeKey(keys[0])
		r.hi = KeySuccessor(r.lo)
	default:
		if path.lo != nil {
			if r.lo = EncodeKey(keys[0]); !path.lo.incl {
				r.lo = KeySuccessor(r.lo)
			}
		}
		if path.hi != nil {
			if r.hi = EncodeKey(keys[1]); path.hi.incl {
				r.hi = KeySuccessor(r.hi)
			}
		}
	}
	r.implied = sameClass && path.exact && (path.kind == pathPKEq || path.kind == pathPKRange)
	return r, true, nil
}

// scanTable drives t's access path: each row it reads is decoded, bound
// to t, checked against t's conjuncts unless its key range implies them,
// and handed to visit. A row's TEXT and BLOB values lie in the reply
// frame its cell came in, unless tx has staged writes (see rowSlab).
// t.limit sizes the leaf reads and the rows' backing arrays, the visitor
// decides when the scan stops.
func (db *DB) scanTable(ctx context.Context, tx *kvclient.Tx, t *tablePlan, e *env, visit rowVisitor) error {
	table, path := t.table, t.path
	schema := table.Schema
	keyCol := path.keyCol(schema)
	var r keyRange
	ranged := false
	if keyCol >= 0 {
		var err error
		if r, ranged, err = evalKeyRange(e, path, schema.Cols[keyCol].Type); err != nil {
			return err
		}
	}
	filter := t.conj
	if r.implied {
		filter = nil
	}
	limit := path.scanLimit(table, t.limit)
	slab := rowSlab{rows: limit, inFrame: tx.NumWrites() == 0}
	if path.kind == pathPKEq {
		slab.rows = 1
	}
	visitCell := func(key, val []byte) (bool, error) {
		row, err := slab.decode(val)
		if err != nil {
			return false, err
		}
		t.row = row
		for _, c := range filter {
			v, err := e.eval(c)
			if err != nil {
				return false, err
			}
			if v.IsNull() || !v.Truthy() {
				return true, nil // next row, decoded where this one was
			}
		}
		slab.keep(row)
		return visit(key, row)
	}
	switch {
	case keyCol < 0:
		return db.scanTreeRange(ctx, tx, table.Tree, dbt.Range{Limit: limit}, visitCell)
	case !ranged:
		// A bound that is not a key of the column's type: scan everything
		// and leave the decision to the row filter.
		return db.scanTreeRange(ctx, tx, table.Tree, dbt.Range{}, visitCell)
	}
	lo, hi := r.lo, r.hi
	if hi != nil && bytesCompare(lo, hi) >= 0 {
		return nil // col = NULL, or contradictory bounds: nothing to read
	}
	switch path.kind {
	case pathPKEq:
		val, err := table.Tree.Get(ctx, tx, lo)
		if errors.Is(err, dbt.ErrKeyNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		_, err = visitCell(lo, val)
		return err
	case pathPKRange:
		return db.scanTreeRange(ctx, tx, table.Tree, dbt.Range{Lo: lo, Hi: hi, Limit: limit}, visitCell)
	}
	is := schema.Indexes[path.idx]
	// Gather matching row keys in chunks and fetch the rows with one
	// batched read per chunk (dbt.GetBatch): the index scan stays
	// pipelined, and the row lookups shed their round-trip-per-row
	// cost. A chunk is no larger than the row limit, so the index scan
	// is not driven past the entries the statement can use.
	rowBatch := 64
	if limit > 0 && limit < rowBatch {
		rowBatch = limit
	}
	keys := make([][]byte, 0, rowBatch)
	idxRange := dbt.Range{Lo: lo, Hi: hi, Limit: limit}
	// An equality lookup is a read plan too, where the value has been
	// looked up through this handle before: the index scan's own first
	// round and the leaf reads of the rows it named then go out as one
	// round. What follows is none the wiser — the scan and GetBatch find
	// their reads in the transaction's read set, and rows are fetched by
	// the keys the index holds at this snapshot, so a stale hint is reads
	// wasted and the round GetBatch makes anyway.
	var hints *indexHints
	if path.kind == pathIdxEq {
		hints = &table.hints[path.idx]
		if rows := hints.get(lo); len(rows) > 0 {
			rows = rows[:min(len(rows), rowBatch)]
			plan := table.IndexTrees[path.idx].PlanScan(make([]kv.ReadBatchItem, 0, 1+len(rows)), tx, idxRange)
			for _, rowKey := range rows {
				plan = table.Tree.PlanPoint(plan, rowKey)
			}
			if err := tx.Prefetch(ctx, plan); err != nil {
				return err
			}
		}
	}
	flush := func() (bool, error) {
		if hints != nil {
			hints.put(lo, keys) // the first chunk, be it empty, is the next lookup's hint
			hints = nil
		}
		if len(keys) == 0 {
			return true, nil
		}
		rows, err := table.Tree.GetBatch(ctx, tx, keys)
		if err != nil {
			return false, err
		}
		fetched := keys
		keys = keys[:0] // nothing is appended until the chunk has been visited
		for i, raw := range rows {
			if raw == nil {
				return false, fmt.Errorf("sql: index %s points at missing row", is.Name)
			}
			cont, err := visitCell(fetched[i], raw)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	stopped := false
	collect := func(_, rowKey []byte) (bool, error) {
		keys = append(keys, rowKey)
		if len(keys) < rowBatch {
			return true, nil
		}
		cont, err := flush()
		stopped = !cont
		return cont, err
	}
	if err := db.scanTreeRange(ctx, tx, table.IndexTrees[path.idx], idxRange, collect); err != nil || stopped {
		return err
	}
	_, err := flush()
	return err
}

// scanTreeRange iterates the tree cells of r.
func (db *DB) scanTreeRange(ctx context.Context, tx *kvclient.Tx, tree *dbt.Tree, r dbt.Range, visit func(key, val []byte) (bool, error)) error {
	it := tree.NewIterator(ctx, tx, r)
	for ; it.Valid(); it.Next() {
		cont, err := visit(it.Key(), it.Value())
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return it.Err()
}
