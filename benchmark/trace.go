package main

// Spans recorded by the benchmark's own files around calls into each
// layer. They are kept in memory and written out when the run ends.
//
// A statement runs inside the program, so the benchmark cannot see the
// dbt calls it makes. Instead the traced pass remembers every statement
// and afterwards makes, for each, the calls a hand-written dbt client
// would make for the same keys ("shadow" calls), recording them as
// children of the statement's span. A layer's self time is its span
// minus what its children cover.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"yesquel/internal/sql"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was made. Parent is the ID of the span that caused it (0 for
// none); Op numbers the operation it belongs to (-1 for a probe).
// Shadow marks a call made after its parent returned, standing in for
// work the parent did inside the program; only a shadow's duration
// means anything, not when it ran.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Shadow bool   `json:"shadow,omitempty"`
	Rows   int    `json:"rows,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// stmtRecord is a statement the traced replay ran, kept for its shadow.
type stmtRecord struct {
	span  int // ID of the statement's span
	op    int
	query string
	args  []sql.Value
	rows  int
}

// tracer records the spans of one goroutine. beginOp, endOp and stmt
// are no-ops on a nil tracer, which is how the untraced passes run the
// same code.
type tracer struct {
	epoch  time.Time
	spans  []span
	stmts  []stmtRecord
	op     int // current operation number, -1 outside operations
	opSpan int // index in spans of the current operation's span
	nextOp int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), op: -1}
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.op = t.nextOp
	t.nextOp++
	t.add(span{Name: "op", Start: int64(time.Since(t.epoch)), Op: t.op})
	t.opSpan = len(t.spans) - 1
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	if op := &t.spans[t.opSpan]; op.End == 0 {
		op.End = int64(time.Since(t.epoch)) // an operation without statements
	}
	t.op = -1
}

// stmt records one SQL statement of the current operation. The
// operation's span ends with its last statement.
func (t *tracer) stmt(start time.Time, d time.Duration, rows int, query string, args ...sql.Value) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	op := &t.spans[t.opSpan]
	op.End = s + int64(d)
	id := t.add(span{Name: "sql.stmt", Start: s, End: op.End, Parent: op.ID, Op: t.op, Rows: rows})
	t.stmts = append(t.stmts, stmtRecord{span: id, op: t.op, query: query, args: append([]sql.Value(nil), args...), rows: rows})
}

// shadow times f as a shadow child of the statement rec.
func (t *tracer) shadow(rec stmtRecord, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if err == nil {
		s := int64(t0.Sub(t.epoch))
		t.add(span{Name: name, Start: s, End: s + int64(d), Parent: rec.span, Op: rec.op, Shadow: true})
	}
	return err
}

// probe times f as a span of its own, outside any operation.
func (t *tracer) probe(name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if err == nil {
		s := int64(t0.Sub(t.epoch))
		t.add(span{Name: name, Start: s, End: s + int64(d), Op: -1})
	}
	return d, err
}

// selfTime is a span's duration minus the part its children account
// for. Children that ran inside the parent count by the interval they
// cover (overlaps and gaps counted once); shadow children ran after the
// parent returned and count by their durations. Children that together
// outlast the parent leave a self time of 0, never a negative one.
func selfTime(parent span, children []span) int64 {
	var covered int64
	var nested []span
	for _, c := range children {
		if c.Shadow {
			covered += c.dur()
			continue
		}
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			nested = append(nested, c)
		}
	}
	sort.Slice(nested, func(i, j int) bool { return nested[i].Start < nested[j].Start })
	reach := parent.Start
	for _, c := range nested {
		if c.End <= reach {
			continue
		}
		if c.Start > reach {
			reach = c.Start
		}
		covered += c.End - reach
		reach = c.End
	}
	if self := parent.dur() - covered; self > 0 {
		return self
	}
	return 0
}

// selfTimes returns the self time of every span called name.
func selfTimes(spans []span, name string) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, selfTime(s, children[s.ID]))
		}
	}
	return out
}

// durations returns the duration of every span called name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
