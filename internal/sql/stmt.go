package sql

import (
	"context"
	"fmt"
)

// Prepared statements. Parsing a Web application's small queries can
// rival execution cost, so sessions keep a parse cache and expose
// explicit preparation. The AST is immutable during execution, so a
// parsed statement is reusable (within its session; a PreparedStmt is
// tied to the DB that made it and shares its single-goroutine rule).

// PreparedStmt is a parsed statement bound to a session.
type PreparedStmt struct {
	db      *DB
	stmt    Stmt
	query   string
	nparams int
}

// Prepare parses query once for repeated execution.
func (db *DB) Prepare(query string) (*PreparedStmt, error) {
	stmt, nparams, err := db.parse(query)
	if err != nil {
		return nil, err
	}
	return &PreparedStmt{db: db, stmt: stmt, query: query, nparams: nparams}, nil
}

// NumParams reports the number of ? placeholders.
func (s *PreparedStmt) NumParams() int { return s.nparams }

// Query executes the statement and returns its rows.
func (s *PreparedStmt) Query(ctx context.Context, args ...Value) (*Rows, error) {
	if len(args) < s.nparams {
		return nil, fmt.Errorf("sql: statement needs %d arguments, got %d", s.nparams, len(args))
	}
	_, rows, err := s.db.runParsed(ctx, s.stmt, args)
	if rows == nil {
		rows = &Rows{}
	}
	return rows, err
}

// Exec executes the statement, discarding rows.
func (s *PreparedStmt) Exec(ctx context.Context, args ...Value) (Result, error) {
	res, _, err := s.db.runParsed(ctx, s.stmt, args)
	return res, err
}

// parseCacheCap bounds the per-session parse cache.
const parseCacheCap = 256

type parsedEntry struct {
	stmt    Stmt
	nparams int
}

// parse returns the parsed form of query, consulting the session's
// cache first.
func (db *DB) parse(query string) (Stmt, int, error) {
	if e, ok := db.parseCache[query]; ok {
		return e.stmt, e.nparams, nil
	}
	stmt, nparams, err := parse(query)
	if err != nil {
		return nil, 0, err
	}
	if db.parseCache == nil {
		db.parseCache = make(map[string]parsedEntry, 64)
	}
	if len(db.parseCache) >= parseCacheCap {
		// Simple wholesale eviction: statement sets in Web apps are
		// small and stable; overflowing means the caller interpolates
		// values into SQL (their bug, not our memory leak).
		db.parseCache = make(map[string]parsedEntry, 64)
	}
	db.parseCache[query] = parsedEntry{stmt: stmt, nparams: nparams}
	return stmt, nparams, nil
}
