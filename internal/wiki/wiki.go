// Package wiki implements the Wikipedia-style Web application workload
// of the paper's SQL evaluation: a page table keyed by title, a
// revision history, and inter-page links, exercised with a read-heavy
// mix (render a page: 3 queries; edit a page: read + 2 writes) under
// zipfian page popularity. Real Wikipedia dumps are replaced by
// synthetic articles (DESIGN.md, substitution 4) — the schema, query
// shapes, and skew are what the experiment measures.
package wiki

import (
	"context"
	"fmt"
	"math/rand"

	"yesquel/internal/sql"
	"yesquel/internal/ycsb"
)

// Schema is the DDL of the wiki database.
var Schema = []string{
	`CREATE TABLE page (
		id INTEGER PRIMARY KEY,
		title TEXT NOT NULL,
		latest INTEGER NOT NULL
	)`,
	`CREATE UNIQUE INDEX page_title ON page (title)`,
	`CREATE TABLE revision (
		id INTEGER PRIMARY KEY,
		page_id INTEGER NOT NULL,
		content TEXT NOT NULL,
		author TEXT
	)`,
	`CREATE INDEX rev_page ON revision (page_id)`,
	`CREATE TABLE pagelink (
		id INTEGER PRIMARY KEY,
		src INTEGER NOT NULL,
		dst_title TEXT NOT NULL
	)`,
	`CREATE INDEX link_src ON pagelink (src)`,
}

// Executor abstracts the SQL endpoint so the workload runs unchanged
// against Yesquel sessions and the centralized comparator.
type Executor interface {
	Query(ctx context.Context, query string, args ...sql.Value) ([][]sql.Value, error)
	Exec(ctx context.Context, query string, args ...sql.Value) error
}

// DBExecutor adapts a Yesquel session to Executor.
type DBExecutor struct{ DB *sql.DB }

// Query implements Executor.
func (d DBExecutor) Query(ctx context.Context, query string, args ...sql.Value) ([][]sql.Value, error) {
	rows, err := d.DB.Query(ctx, query, args...)
	if err != nil {
		return nil, err
	}
	return rows.All(), nil
}

// Exec implements Executor.
func (d DBExecutor) Exec(ctx context.Context, query string, args ...sql.Value) error {
	_, err := d.DB.Exec(ctx, query, args...)
	return err
}

// Title formats page n's title.
func Title(n int64) string { return fmt.Sprintf("Article_%06d", n) }

// Load creates the schema and pages 0..numPages-1, each with one
// revision and linksPerPage outgoing links.
func Load(ctx context.Context, ex Executor, numPages int, linksPerPage int) error {
	for _, ddl := range Schema {
		if err := ex.Exec(ctx, ddl); err != nil {
			return fmt.Errorf("wiki: schema: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for p := 0; p < numPages; p++ {
		revID := int64(p)*1000 + 1
		if err := ex.Exec(ctx, "INSERT INTO revision VALUES (?, ?, ?, ?)",
			sql.Int(revID), sql.Int(int64(p)), sql.Text(articleBody(int64(p), 1)), sql.Text("loader")); err != nil {
			return err
		}
		if err := ex.Exec(ctx, "INSERT INTO page VALUES (?, ?, ?)",
			sql.Int(int64(p)), sql.Text(Title(int64(p))), sql.Int(revID)); err != nil {
			return err
		}
		for l := 0; l < linksPerPage; l++ {
			dst := rng.Int63n(int64(numPages))
			if err := ex.Exec(ctx, "INSERT INTO pagelink (id, src, dst_title) VALUES (?, ?, ?)",
				sql.Int(int64(p)*100+int64(l)), sql.Int(int64(p)), sql.Text(Title(dst))); err != nil {
				return err
			}
		}
	}
	return nil
}

func articleBody(page, rev int64) string {
	return fmt.Sprintf("== Article %d ==\nrevision %d\n%s", page, rev, loremBody)
}

const loremBody = "Lorem ipsum dolor sit amet, consectetur adipiscing elit, " +
	"sed do eiusmod tempor incididunt ut labore et dolore magna aliqua."

// Worker drives the request mix against one Executor. Not safe for
// concurrent use; one Worker per client goroutine.
type Worker struct {
	ex       Executor
	rng      *rand.Rand
	zipf     *ycsb.Zipfian
	numPages int64
	editFrac float64
	nextRev  int64

	Reads, Edits, Errors uint64
}

// NewWorker returns a workload driver. editFrac is the fraction of
// operations that edit (the paper's mix is read-heavy; 0.1 by default
// if negative). seed differentiates concurrent workers and, shifted
// into the high bits of the revision ids they mint, keeps those
// disjoint.
func NewWorker(ex Executor, numPages int64, editFrac float64, seed int64) *Worker {
	if editFrac < 0 {
		editFrac = 0.1
	}
	rng := rand.New(rand.NewSource(seed))
	return &Worker{
		ex:       ex,
		rng:      rng,
		zipf:     ycsb.NewZipfian(rng, numPages, ycsb.DefaultTheta),
		numPages: numPages,
		editFrac: editFrac,
		nextRev:  seed<<40 | 1<<39, // disjoint per-worker revision ids
	}
}

// Step performs one operation (a page render or an edit).
func (w *Worker) Step(ctx context.Context) error {
	page := w.zipf.Next()
	var err error
	if w.rng.Float64() < w.editFrac {
		err = w.Edit(ctx, page)
		if err == nil {
			w.Edits++
		}
	} else {
		err = w.Read(ctx, page)
		if err == nil {
			w.Reads++
		}
	}
	if err != nil {
		w.Errors++
	}
	return err
}

// Read renders a page: look up the page row by title (secondary
// index), fetch its latest revision (primary key), and list its links
// (secondary index) — the paper's three-query page view.
func (w *Worker) Read(ctx context.Context, page int64) error {
	rows, err := w.ex.Query(ctx, "SELECT id, latest FROM page WHERE title = ?", sql.Text(Title(page)))
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("wiki: page %d not found", page)
	}
	id, latest := rows[0][0], rows[0][1]
	revs, err := w.ex.Query(ctx, "SELECT content FROM revision WHERE id = ?", latest)
	if err != nil {
		return err
	}
	if len(revs) != 1 {
		return fmt.Errorf("wiki: revision %d of page %d missing", latest.I, page)
	}
	_, err = w.ex.Query(ctx, "SELECT dst_title FROM pagelink WHERE src = ?", id)
	return err
}

// Edit adds a revision to a page and points the page at it.
func (w *Worker) Edit(ctx context.Context, page int64) error {
	rows, err := w.ex.Query(ctx, "SELECT id FROM page WHERE title = ?", sql.Text(Title(page)))
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("wiki: page %d not found", page)
	}
	id := rows[0][0]
	revID := w.nextRev
	w.nextRev++
	if err := w.ex.Exec(ctx, "INSERT INTO revision VALUES (?, ?, ?, ?)",
		sql.Int(revID), id, sql.Text(articleBody(page, revID)), sql.Text("worker")); err != nil {
		return err
	}
	return w.ex.Exec(ctx, "UPDATE page SET latest = ? WHERE id = ?", sql.Int(revID), id)
}
