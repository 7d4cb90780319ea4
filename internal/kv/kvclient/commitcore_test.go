package kvclient

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// The commit core and the retry table driven row by row: each row is an
// event and what the core asks for next (its actions, or nothing while
// the round waits for more answers), with no goroutine, socket or sleep.

// coreRow is one event, the actions it returns and, when set, the core's
// state after it.
type coreRow struct {
	do    func(c *commitCore) []commitAction
	want  string
	state string
}

func voteE(p int, ts clock.Timestamp, cells ...uint64) func(*commitCore) []commitAction {
	return func(c *commitCore) []commitAction { return c.voted(p, ts, cells, nil) }
}

func refuseE(p int, err error) func(*commitCore) []commitAction {
	return func(c *commitCore) []commitAction { return c.voted(p, 0, nil, err) }
}

func lostE(p int, sent bool, err error) func(*commitCore) []commitAction {
	return func(c *commitCore) []commitAction { return c.sendFailed(p, sent, err) }
}

func ackE(p int, err error) func(*commitCore) []commitAction {
	return func(c *commitCore) []commitAction { return c.acked(p, err) }
}

func startE(c *commitCore) []commitAction { return c.start() }

func (a commitAction) String() string {
	switch a.kind {
	case actFastCommit:
		return fmt.Sprintf("fast %d", a.p)
	case actPrepare:
		return fmt.Sprintf("prepare %d", a.p)
	case actDecide:
		return fmt.Sprintf("decide %d @%d", a.p, a.ts)
	case actAbort:
		return fmt.Sprintf("abort %d", a.p)
	}
	return fmt.Sprintf("done %v", a.err)
}

func (c *commitCore) String() string {
	names := [...]string{unsent: "unsent", sent: "sent", votedYes: "yes", votedNo: "no", decided: "decided", uncertain: "uncertain"}
	var b strings.Builder
	for i, p := range c.parts {
		fmt.Fprintf(&b, "%d@%d:%s ", i, p.server, names[p.state])
	}
	fmt.Fprintf(&b, "ts=%d", c.commitTS)
	return b.String()
}

func runCoreRows(t *testing.T, c *commitCore, rows []coreRow) {
	t.Helper()
	for i, r := range rows {
		acts := r.do(c)
		got := make([]string, len(acts))
		for j, a := range acts {
			got[j] = a.String()
		}
		if g := strings.Join(got, "; "); g != r.want {
			t.Fatalf("row %d: actions %q, want %q", i, g, r.want)
		}
		if r.state != "" && c.String() != r.state {
			t.Fatalf("row %d: state %q, want %q", i, c.String(), r.state)
		}
	}
}

// bound is a kv.OpCmpMaxCells op on a node of slot, as a tree leaf's
// write carries; write is a plain op.
func bound(slot uint16, local uint64) *kv.Op {
	return &kv.Op{Kind: kv.OpCmpMaxCells, OID: kv.MakeOID(slot, local), Num: 128}
}

func write(slot uint16, local uint64) *kv.Op {
	return &kv.Op{Kind: kv.OpListAdd, OID: kv.MakeOID(slot, local), Cell: kv.Cell{Key: []byte("k")}}
}

var (
	errConflict = fmt.Errorf("conflict: %w", kv.ErrConflict)
	errLost     = errors.New("connection reset")
)

// TestCommitCoreFastCommit: one participant is fast-committed; its yes
// is the decision, at its commit timestamp, and its cell counts become
// readable.
func TestCommitCoreFastCommit(t *testing.T) {
	c := newCommitCore([]*kv.Op{write(2, 1), bound(2, 1), write(5, 2), bound(5, 2)}, 3)
	runCoreRows(t, c, []coreRow{
		{do: startE, want: "fast 0", state: "0@2:sent ts=0"},
		{do: voteE(0, 70, 11, 12), want: "done <nil>", state: "0@2:decided ts=70"},
	})
	for oid, want := range map[kv.OID]int{kv.MakeOID(2, 1): 11, kv.MakeOID(5, 2): 12} {
		if n, ok := c.cells(oid); !ok || n != want {
			t.Fatalf("cells(%v) = %d, %v; want %d", oid, n, ok, want)
		}
	}
	if _, ok := c.cells(kv.MakeOID(2, 9)); ok {
		t.Fatal("cells of an object the commit did not bound")
	}
}

// TestCommitCoreFastCommitFails: a refused fast commit ends with the
// refusal; one with no answer ends with the call's error, its
// participant uncertain when the request may have reached it and unsent
// when it provably did not. None of them reports cells.
func TestCommitCoreFastCommitFails(t *testing.T) {
	uncertainErr := fmt.Errorf("%w: %v", kv.ErrUncertain, errLost)
	for _, tc := range []struct {
		event func(*commitCore) []commitAction
		want  string
		state string
	}{
		{refuseE(0, errConflict), "done conflict: kv: transaction conflict", "0@1:no ts=0"},
		{lostE(0, true, uncertainErr), "done kv: commit outcome uncertain: connection reset", "0@1:uncertain ts=0"},
		{lostE(0, false, errLost), "done connection reset", "0@1:unsent ts=0"},
	} {
		c := newCommitCore([]*kv.Op{write(1, 1), bound(1, 1)}, 2)
		runCoreRows(t, c, []coreRow{{do: startE, want: "fast 0"}, {do: tc.event, want: tc.want, state: tc.state}})
		if _, ok := c.cells(kv.MakeOID(1, 1)); ok {
			t.Fatalf("%s: cells reported by a commit that failed", tc.want)
		}
	}
}

// TestCommitCoreTwoPhase: several participants, in order of first
// appearance, are prepared; the round waits for every vote, whatever
// order they come in, and the decision goes to all at the largest
// proposal — not the first, the last or the lowest.
func TestCommitCoreTwoPhase(t *testing.T) {
	c := newCommitCore([]*kv.Op{write(4, 1), write(1, 2), bound(4, 1), write(6, 3), bound(1, 2)}, 4)
	runCoreRows(t, c, []coreRow{
		{do: startE, want: "prepare 0; prepare 1; prepare 2", state: "0@0:sent 1@1:sent 2@2:sent ts=0"},
		{do: voteE(0, 30, 7), want: ""},
		{do: voteE(2, 40), want: ""},
		{do: voteE(1, 50, 9), want: "decide 0 @50; decide 1 @50; decide 2 @50", state: "0@0:yes 1@1:yes 2@2:yes ts=50"},
		{do: ackE(2, nil), want: ""},
		{do: ackE(0, nil), want: ""},
		{do: ackE(1, nil), want: "done <nil>", state: "0@0:decided 1@1:decided 2@2:decided ts=50"},
	})
	if n, ok := c.cells(kv.MakeOID(1, 2)); !ok || n != 9 {
		t.Fatalf("cells of participant 1's bound = %d, %v; want 9", n, ok)
	}
}

// TestCommitCoreOneNoAbortsEveryone: one "no" aborts every participant,
// the yes-voters and the refuser alike, and the commit ends with the
// refusal, whatever the aborts met. Nothing is decided, and no cells are
// reported.
func TestCommitCoreOneNoAbortsEveryone(t *testing.T) {
	c := newCommitCore([]*kv.Op{bound(0, 1), bound(1, 1), bound(2, 1)}, 3)
	runCoreRows(t, c, []coreRow{
		{do: startE, want: "prepare 0; prepare 1; prepare 2"},
		{do: voteE(0, 30, 1), want: ""},
		{do: refuseE(1, errConflict), want: ""},
		{do: voteE(2, 40, 1), want: "abort 0; abort 1; abort 2", state: "0@0:yes 1@1:no 2@2:yes ts=0"},
		{do: ackE(0, nil), want: ""},
		{do: ackE(1, errLost), want: ""},
		{do: ackE(2, nil), want: "done conflict: kv: transaction conflict", state: "0@0:decided 1@1:uncertain 2@2:decided ts=0"},
	})
	if _, ok := c.cells(kv.MakeOID(0, 1)); ok {
		t.Fatal("cells reported by an aborted commit")
	}
}

// TestCommitCoreFirstRefusalInParticipantOrder: the commit fails with the
// first participant's refusal, not the first to arrive; a prepare that
// got no answer counts as a "no", its participant uncertain.
func TestCommitCoreFirstRefusalInParticipantOrder(t *testing.T) {
	runCoreRows(t, newCommitCore([]*kv.Op{write(0, 1), write(1, 1), write(2, 1)}, 3), []coreRow{
		{do: startE, want: "prepare 0; prepare 1; prepare 2"},
		{do: refuseE(2, errConflict), want: ""},
		{do: voteE(1, 20), want: ""},
		{do: lostE(0, true, errLost), want: "abort 0; abort 1; abort 2", state: "0@0:uncertain 1@1:yes 2@2:no ts=0"},
		{do: ackE(0, nil), want: ""},
		{do: ackE(1, nil), want: ""},
		{do: ackE(2, nil), want: "done connection reset"},
	})
}

// TestCommitCoreDecisionIncomplete: a decision no member of a
// participant's group took ends the commit as incomplete, naming the
// group and wrapping the call's error; the commit stays decided and its
// cells readable.
func TestCommitCoreDecisionIncomplete(t *testing.T) {
	c := newCommitCore([]*kv.Op{write(0, 1), bound(1, 1)}, 2)
	acts := make([]commitAction, 0, 1)
	runCoreRows(t, c, []coreRow{
		{do: startE, want: "prepare 0; prepare 1"},
		{do: voteE(0, 10), want: ""},
		{do: voteE(1, 20, 5), want: "decide 0 @20; decide 1 @20"},
		{do: ackE(0, nil), want: ""},
		{do: func(c *commitCore) []commitAction {
			acts = c.acked(1, fmt.Errorf("%w: %v", kv.ErrWrongEpoch, errLost))
			return acts
		}, want: "done kv: commit incomplete: commit on server 1: kv: wrong epoch: connection reset", state: "0@0:decided 1@1:uncertain ts=20"},
	})
	if !errors.Is(acts[0].err, kv.ErrWrongEpoch) {
		t.Fatalf("incomplete commit %v does not wrap the call's error", acts[0].err)
	}
	if n, ok := c.cells(kv.MakeOID(1, 1)); !ok || n != 5 {
		t.Fatalf("cells after an incomplete commit = %d, %v; want 5", n, ok)
	}
}

// TestCommitCoreCellsAnswerEveryBound: a reply whose counts do not answer
// each of its participant's bounds reports nothing for that participant;
// the other's counts stand. A repeated bound reads its first answer.
func TestCommitCoreCellsAnswerEveryBound(t *testing.T) {
	c := newCommitCore([]*kv.Op{bound(0, 1), bound(0, 2), bound(1, 3), bound(1, 3)}, 2)
	runCoreRows(t, c, []coreRow{
		{do: startE, want: "prepare 0; prepare 1"},
		{do: voteE(0, 10, 4), want: ""},
		{do: voteE(1, 10, 6, 8), want: "decide 0 @10; decide 1 @10"},
	})
	if _, ok := c.cells(kv.MakeOID(0, 1)); ok {
		t.Fatal("a reply with one count for two bounds reported one")
	}
	if n, ok := c.cells(kv.MakeOID(1, 3)); !ok || n != 6 {
		t.Fatalf("cells(1,3) = %d, %v; want 6", n, ok)
	}
}

// TestRetryTable: every message kind against every failure class, one
// outcome each. A wrong-epoch refusal is retried by every kind, at once
// when it taught a newer epoch and on the next member after the pause
// when not; only an unanswered attempt tells the kinds apart. An unlisted
// method never retries.
func TestRetryTable(t *testing.T) {
	names := [...]string{fail: "fail", failUncertain: "uncertain", retryNow: "now", nextMember: "next"}
	const idem = "now now now next fail fail" // notSent unanswered epochTaught epochUntaught errReply ctxDone
	for _, row := range []struct{ method, want string }{
		{kv.MethodReadPart, idem},
		{kv.MethodReadBatch, idem},
		{kv.MethodPing, idem},
		{kv.MethodFastCommit, "now uncertain now next fail fail"},
		{kv.MethodPrepare, "now fail now next fail fail"},
		{kv.MethodCommit, idem},
		{kv.MethodAbort, idem},
		{kv.MethodMirrorBatch, "fail fail fail fail fail fail"},
	} {
		for _, hops := range []int{0, maxEpochHops - 1, maxEpochHops} {
			want := row.want
			if hops >= maxEpochHops {
				want = strings.ReplaceAll(want, "next", "fail")
			}
			got := make([]string, nFailures)
			for f := failure(0); f < nFailures; f++ {
				got[f] = names[retry(row.method, f, hops)]
			}
			if g := strings.Join(got, " "); g != want {
				t.Errorf("%s after %d hops: %q, want %q", row.method, hops, g, want)
			}
		}
	}
}

// TestRetryTableRepliedClasses: the classes in which the server answered
// are the refusals: what it refused was not executed.
func TestRetryTableRepliedClasses(t *testing.T) {
	var got []string
	for f := failure(0); f < nFailures; f++ {
		got = append(got, strconv.FormatBool(f.replied()))
	}
	if g, want := strings.Join(got, " "), "false false true true true false"; g != want {
		t.Fatalf("replied by class: %q, want %q", g, want)
	}
}

// TestCommitCoreImportsNoIO: the cores are values — their file imports
// nothing that waits, locks or talks.
func TestCommitCoreImportsNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "commitcore.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "context", "sync", "sync/atomic", "time", "yesquel/internal/rpc", "net":
			t.Errorf("commitcore.go imports %s", path)
		}
	}
}
