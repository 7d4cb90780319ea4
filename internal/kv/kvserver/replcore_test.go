package kvserver

// Event tables for the replication core: each row feeds replCore one
// event — no goroutine, no sleep, time as an argument — and checks what
// it returns, rendered as text: the member's action for a tick, and the
// effects the event asks of the pipeline.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/kv"
)

// coreLease is the lease of every table: heartbeats every second.
const coreLease = 3 * time.Second

// at is the tables' clock: ms milliseconds after an arbitrary origin.
func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

// coreFixture is a core under test, the members attached to it, and
// the store's retained tail it cuts batches from: log[i] is the record
// at base+i.
type coreFixture struct {
	c    replCore
	m    map[string]*coreMember
	log  []kv.ReplRecord
	base uint64
}

func newCoreFixture(members ...string) *coreFixture {
	f := &coreFixture{c: newReplCore(coreLease), m: map[string]*coreMember{}}
	if len(members) > 0 {
		f.c.install(2, members)
	}
	return f
}

func (f *coreFixture) attach(id string) {
	if f.m[id] = f.c.attach(id); f.m[id] == nil {
		panic("attached twice: " + id)
	}
}

// emit emits n records of size bytes each.
func (f *coreFixture) emit(n, size int) {
	rec := kv.ReplRecord{Kind: kv.RecCommit, Ops: []*kv.Op{{Kind: kv.OpPut, Value: kv.NewPlain(make([]byte, size))}}}
	for i := 0; i < n; i++ {
		f.log = append(f.log, rec)
		f.c.emit(f.c.head, &rec)
	}
}

// truncate cuts the tail below to, as truncateLogLocked does, but never
// past the core's floor, and renders where the tail now starts.
func (f *coreFixture) truncate(to uint64) string {
	to = min(to, f.c.floor())
	if to > f.base {
		f.log = f.log[to-f.base:]
		f.base = to
	}
	return fmt.Sprintf("tail from %d", f.base)
}

// restart installs a snapshot at head, which empties the tail.
func (f *coreFixture) restart(head, epoch uint64) {
	f.log, f.base = nil, head
	f.c.restart(head, epoch)
}

// tick renders a member's next action at ms.
func (f *coreFixture) tick(id string, ms int) string {
	a := f.c.tick(f.m[id], at(ms), f.log, f.base)
	switch a.kind {
	case actSend:
		return fmt.Sprintf("send [%d,%d)", a.from, a.from+uint64(len(a.recs)))
	case actWait:
		return fmt.Sprintf("wait %d", a.until.Sub(at(0)).Milliseconds())
	case actPush:
		return "push"
	}
	return "stop"
}

// effects renders and drains what the events since the last call asked.
func (f *coreFixture) effects() string {
	var out []string
	for _, e := range f.c.out {
		switch e.kind {
		case effComplete:
			out = append(out, fmt.Sprintf("complete %d", e.to))
		case effFail:
			to := fmt.Sprint(e.to)
			if e.to == ^uint64(0) {
				to = "∞"
			}
			out = append(out, fmt.Sprintf("fail [%d,%s) %v", e.from, to, e.err))
		case effJoin:
			out = append(out, fmt.Sprintf("join %s %v", e.m.id, e.err))
		case effLease:
			if e.until.IsZero() {
				out = append(out, "lease none")
			} else {
				out = append(out, fmt.Sprintf("lease %d", e.until.Sub(at(0)).Milliseconds()))
			}
		}
	}
	f.c.out = f.c.out[:0]
	return strings.Join(out, "; ")
}

// state renders the marks every row may pin.
func (f *coreFixture) state() string {
	var ms []string
	for _, m := range f.c.members {
		flags := ""
		for _, fl := range []struct {
			on   bool
			name string
		}{{!m.voter, " learner"}, {m.broken, " broken"}, {m.parked, " parked"}, {m.stop, " stop"}} {
			if fl.on {
				flags += fl.name
			}
		}
		ms = append(ms, fmt.Sprintf("%s{acked=%d%s}", m.id, m.acked, flags))
	}
	return fmt.Sprintf("need=%d mark=%d %s", f.c.need, f.c.mirrored, strings.Join(ms, " "))
}

// coreRow is one event and what it must return. do runs the event and
// returns the tick's rendered action, if it is one; want is that action
// and the effects, joined by " | ". state, when set, is the core's marks
// afterwards.
type coreRow struct {
	do    func(f *coreFixture) string
	want  string
	state string
}

func runRows(t *testing.T, f *coreFixture, rows []coreRow) {
	t.Helper()
	for i, r := range rows {
		act := r.do(f)
		if got := act + " | " + f.effects(); got != r.want {
			t.Fatalf("row %d: got %q, want %q\n(state %s)", i, got, r.want, f.state())
		}
		if r.state != "" && f.state() != r.state {
			t.Fatalf("row %d: state %s, want %s", i, f.state(), r.state)
		}
	}
}

// Events, as rows.
func attachE(id string) func(*coreFixture) string {
	return func(f *coreFixture) string { f.attach(id); return "" }
}
func emitE(n int) func(*coreFixture) string {
	return func(f *coreFixture) string { f.emit(n, 8); return "" }
}
func truncE(to uint64) func(*coreFixture) string {
	return func(f *coreFixture) string { return f.truncate(to) }
}
func captureE(id string, seq uint64) func(*coreFixture) string {
	return func(f *coreFixture) string { f.c.capture(f.m[id], seq); return "" }
}
func pushChunkE(id string, sentMs int, last bool) func(*coreFixture) string {
	return func(f *coreFixture) string { f.c.chunk(f.m[id], at(sentMs), last); return "" }
}
func tickE(id string, ms int) func(*coreFixture) string {
	return func(f *coreFixture) string { return f.tick(id, ms) }
}
func ackE(id string, sentMs int, upto uint64) func(*coreFixture) string {
	return func(f *coreFixture) string { f.c.ack(f.m[id], at(sentMs), upto); return "" }
}
func failE(id string, ms int, err error) func(*coreFixture) string {
	return func(f *coreFixture) string { f.c.sendFailed(f.m[id], err, at(ms)); return "" }
}
func installE(epoch uint64, members ...string) func(*coreFixture) string {
	return func(f *coreFixture) string { f.c.install(epoch, members); return "" }
}
func detachE(ids ...string) func(*coreFixture) string {
	return func(f *coreFixture) string {
		f.c.detach(func(id string) bool { return slices.Contains(ids, id) })
		return ""
	}
}

var errRefused = errors.New("refused")

// TestReplCoreJoinAckHeartbeatLease: a listed member's probe goes at
// once and answers its join; its accepted batches advance the watermark
// and the lease, measured from each batch's send; an idle member is sent
// a heartbeat a third of the lease after its last batch. The lease holds
// only under the epoch the core installed.
func TestReplCoreJoinAckHeartbeatLease(t *testing.T) {
	f := newCoreFixture("p", "a")
	runRows(t, f, []coreRow{
		{do: attachE("a"), want: " | ", state: "need=1 mark=0 a{acked=0}"},
		{do: func(f *coreFixture) string { return fmt.Sprint(f.c.attach("a")) }, want: "<nil> | "},
		{do: tickE("a", 0), want: "send [0,0) | "},
		{do: ackE("a", 0, 0), want: " | join a <nil>; lease 3000"},
		{do: emitE(2), want: " | "},
		{do: tickE("a", 100), want: "send [0,2) | "},
		{do: tickE("a", 150), want: "wait 1100 | "},
		{do: ackE("a", 100, 2), want: " | complete 2; lease 3100"},
		{do: tickE("a", 1100), want: "send [2,2) | "},
		{do: ackE("a", 1100, 2), want: " | lease 4100", state: "need=1 mark=2 a{acked=2}"},
	})
	for epoch, want := range map[uint64]time.Time{1: {}, 2: at(4100), 3: {}} {
		if got, ok := f.c.leaseFor(epoch); !got.Equal(want) || ok != (epoch == 2) {
			t.Fatalf("lease under epoch %d: %v (%v), want %v under epoch 2 alone", epoch, got, ok, want)
		}
	}
}

// TestReplCoreBrokenVoterRetriesAtTheHead: a failed send breaks the
// member and parks it; it stays a voter, and the other member's acks
// carry the quorum. After its back-off — a heartbeat period, doubling
// up to the lease — its retry probes at the stream head, not at its old
// position: its backup's gap reply says what it lacks. An accepted
// probe heals it.
func TestReplCoreBrokenVoterRetriesAtTheHead(t *testing.T) {
	runRows(t, newCoreFixture("p", "a", "b"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: attachE("b"), want: " | "},
		{do: emitE(1), want: " | "},
		{do: tickE("a", 0), want: "send [0,1) | "},
		{do: tickE("b", 0), want: "send [0,1) | "},
		{do: failE("b", 0, errRefused), want: " | join b refused", state: "need=1 mark=0 a{acked=0} b{acked=0 broken parked}"},
		{do: ackE("a", 0, 1), want: " | join a <nil>; complete 1; lease 3000"},
		{do: emitE(1), want: " | "},
		{do: tickE("b", 500), want: "wait 1000 | "},
		{do: tickE("b", 1000), want: "send [2,2) | ", state: "need=1 mark=1 a{acked=1} b{acked=0 broken}"},
		{do: failE("b", 1000, errRefused), want: " | "},
		{do: tickE("b", 1000), want: "wait 3000 | "},
		{do: tickE("b", 3000), want: "send [2,2) | "},
		{do: failE("b", 3000, errRefused), want: " | "},
		{do: tickE("b", 3000), want: "wait 6000 | "}, // the back-off stops doubling at the lease
		{do: tickE("b", 6000), want: "send [2,2) | "},
		{do: emitE(1), want: " | "},
		{do: ackE("b", 6000, 2), want: " | complete 2; lease 9000", state: "need=1 mark=2 a{acked=1} b{acked=2}"},
		{do: tickE("b", 6000), want: "send [2,3) | "},
	})
}

// TestReplCoreQuorumLostAndRestored: with fewer live voters than need,
// every record at or above the watermark fails, with the error of a
// broken member; an ack that brings the quorum back ends the failure for
// records from then on.
func TestReplCoreQuorumLostAndRestored(t *testing.T) {
	f := newCoreFixture("p", "a", "b")
	runRows(t, f, []coreRow{
		{do: attachE("a"), want: " | "},
		{do: attachE("b"), want: " | "},
		{do: emitE(2), want: " | "},
		{do: tickE("a", 0), want: "send [0,2) | "},
		{do: tickE("b", 0), want: "send [0,2) | "},
		{do: ackE("a", 0, 1), want: " | join a <nil>; complete 1; lease 3000"},
		{do: failE("a", 10, errRefused), want: " | "},
		{do: failE("b", 10, errRefused), want: " | join b refused; fail [1,∞) kvserver: replication quorum lost (0 of 2 members live, need 1): refused"},
	})
	if f.c.failure(0) != nil || f.c.failure(1) == nil || f.c.failure(5) == nil {
		t.Fatalf("quorum lost at mark 1: failure(0)=%v failure(1)=%v failure(5)=%v", f.c.failure(0), f.c.failure(1), f.c.failure(5))
	}
	runRows(t, f, []coreRow{
		{do: tickE("a", 1010), want: "send [2,2) | "},
		{do: ackE("a", 1010, 2), want: " | complete 2; lease 4010", state: "need=1 mark=2 a{acked=2} b{acked=0 broken parked}"},
	})
	if err := f.c.failure(5); err != nil {
		t.Fatalf("quorum back, a later record still fails: %v", err)
	}
}

// TestReplCoreOneMajority: the quorum and the lease count one majority
// of the installed membership, over one table. In a five-member epoch
// with two backups attached, both granting, the lease is valid — two
// grants of four backups — and a record is complete only once both hold
// it: with the primary, three of five. With one backup attached, the
// quorum is lost though no member failed.
func TestReplCoreOneMajority(t *testing.T) {
	runRows(t, newCoreFixture("p", "a", "b", "c", "d"), []coreRow{
		{do: attachE("a"), want: " | fail [0,∞) kvserver: replication quorum lost (1 of 4 members live, need 2): kvserver: replication member unavailable"},
		{do: attachE("b"), want: " | ", state: "need=2 mark=0 a{acked=0} b{acked=0}"},
		{do: emitE(1), want: " | "},
		{do: tickE("a", 0), want: "send [0,1) | "},
		{do: tickE("b", 0), want: "send [0,1) | "},
		{do: ackE("a", 0, 1), want: " | join a <nil>"},
		{do: ackE("b", 0, 1), want: " | join b <nil>; complete 1; lease 3000"},
		{do: tickE("a", 1000), want: "send [1,1) | "},
		{do: ackE("a", 1000, 1), want: " | "}, // the lease is the second-latest grant
	})
}

// TestReplCoreLearner: a member the membership does not list counts for
// nothing — not toward the watermark, not toward the lease — and its
// first failed send, while its join waits, ends its sender. Once an
// install lists it, it votes.
func TestReplCoreLearner(t *testing.T) {
	runRows(t, newCoreFixture("p", "a"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: attachE("b"), want: " | ", state: "need=1 mark=0 a{acked=0} b{acked=0 learner}"},
		{do: attachE("c"), want: " | "},
		{do: emitE(1), want: " | "},
		{do: tickE("b", 0), want: "send [0,1) | "},
		{do: ackE("b", 0, 1), want: " | join b <nil>"},
		{do: failE("c", 0, errRefused), want: " | join c refused"},
		{do: tickE("c", 5000), want: "stop | "},
		{do: installE(3, "p", "a", "b"), want: " | complete 1; lease 3000", state: "need=1 mark=1 a{acked=0} b{acked=1}"},
		// A learner whose join succeeded is retried like any member.
		{do: attachE("d"), want: " | "},
		{do: tickE("d", 0), want: "send [1,1) | "},
		{do: ackE("d", 0, 1), want: " | join d <nil>"},
		{do: failE("d", 10, errRefused), want: " | "},
		{do: tickE("d", 1010), want: "send [1,1) | "},
	})
}

// TestReplCoreGapAndPush: a gap reply moves the member's position to
// the backup's head, and its ack mark there (resendFrom), and its next
// batch is cut from the tail there. A backup behind the retained log or
// diverged from it is pushed a snapshot, whose capture moves the
// position to the snapshot's; chunks grant the lease,
// and the last one heals the member and answers its join. A push that
// fails breaks the member, whose retry probes again — and a push from a
// store deposed meanwhile ends the sender.
func TestReplCoreGapAndPush(t *testing.T) {
	f := newCoreFixture("p", "a")
	f.emit(5, 8)
	runRows(t, f, []coreRow{
		{do: attachE("a"), want: " | "},
		{do: tickE("a", 0), want: "send [5,5) | "},
		{do: func(f *coreFixture) string {
			f.c.gap(f.m["a"], 3)
			return ""
		}, want: " | complete 3", state: "need=1 mark=3 a{acked=3}"},
		{do: tickE("a", 0), want: "send [3,5) | "},
		{do: failE("a", 0, fmt.Errorf("wrapped: %w", errBehindLog)), want: " | "},
		{do: emitE(1), want: " | "},
		{do: tickE("a", 0), want: "push | "},
		{do: func(f *coreFixture) string { f.c.capture(f.m["a"], 6); return "" }, want: " | "},
		{do: emitE(1), want: " | "},
		{do: func(f *coreFixture) string { f.c.chunk(f.m["a"], at(10), false); return "" }, want: " | lease 3010"},
		{do: func(f *coreFixture) string { f.c.chunk(f.m["a"], at(20), true); return "" },
			want: " | join a <nil>; complete 6; lease 3020", state: "need=1 mark=6 a{acked=6}"},
		{do: tickE("a", 20), want: "send [6,7) | "},
		{do: failE("a", 30, kv.ErrDiverged), want: " | "},
		{do: tickE("a", 30), want: "push | "},
		{do: func(f *coreFixture) string { f.c.capture(f.m["a"], 7); return "" }, want: " | "},
		{do: failE("a", 40, fmt.Errorf("installing: %w", kv.ErrDiverged)), want: " | fail [6,∞) kvserver: replication quorum lost (0 of 1 members live, need 1): installing: kv: replicas diverged", state: "need=1 mark=6 a{acked=6 broken parked}"},
		{do: tickE("a", 40), want: "wait 1040 | "},
		{do: tickE("a", 1040), want: "send [7,7) | "},
		{do: failE("a", 1040, kv.ErrDiverged), want: " | "},
		{do: tickE("a", 1040), want: "push | "},
		{do: failE("a", 1050, &kv.WrongEpochError{Epoch: 4}), want: " | "},
		{do: tickE("a", 9000), want: "stop | "},
	})
}

// TestReplCoreLaggingMemberPushed: the core keeps no record for a
// member. One whose batch is still in flight when a truncation passes
// its position — the primary committed past its tail bound meanwhile —
// holds the tail for no one, and its next action is a pushed snapshot,
// not records the tail no longer has.
func TestReplCoreLaggingMemberPushed(t *testing.T) {
	runRows(t, newCoreFixture("p", "a", "b"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: attachE("b"), want: " | "},
		{do: emitE(2), want: " | "},
		{do: tickE("a", 0), want: "send [0,2) | "},
		{do: tickE("b", 0), want: "send [0,2) | "},
		{do: ackE("a", 0, 2), want: " | join a <nil>; complete 2; lease 3000"},
		{do: emitE(20), want: " | "},
		{do: tickE("a", 10), want: "send [2,22) | "},
		{do: ackE("a", 10, 22), want: " | complete 22; lease 3010"},
		{do: truncE(14), want: "tail from 14 | "},
		{do: ackE("b", 0, 2), want: " | join b <nil>"},
		{do: tickE("b", 20), want: "push | ", state: "need=1 mark=22 a{acked=22} b{acked=2}"},
		{do: captureE("b", 22), want: " | "},
		{do: pushChunkE("b", 30, true), want: " | lease 3030"},
		{do: tickE("b", 30), want: "wait 1000 | ", state: "need=1 mark=22 a{acked=22} b{acked=22}"},
	})
}

// TestReplCorePushHoldsTheTail: a member being pushed a snapshot holds
// the tail from its capture on, so the primary committing past its tail
// bound during the push cuts nothing the member will be sent; once the
// member has been sent up to the head, the tail is cut again.
func TestReplCorePushHoldsTheTail(t *testing.T) {
	f := newCoreFixture("p", "a")
	f.emit(10, 8)
	runRows(t, f, []coreRow{
		{do: truncE(10), want: "tail from 10 | "},
		{do: attachE("a"), want: " | "},
		{do: tickE("a", 0), want: "send [10,10) | "},
		{do: failE("a", 0, fmt.Errorf("wrapped: %w", errBehindLog)), want: " | "},
		{do: tickE("a", 0), want: "push | "},
		{do: captureE("a", 10), want: " | "},
		{do: emitE(40), want: " | "},
		{do: truncE(45), want: "tail from 10 | "},
		{do: pushChunkE("a", 10, false), want: " | lease 3010"},
		{do: emitE(10), want: " | "},
		{do: truncE(55), want: "tail from 10 | "},
		{do: pushChunkE("a", 20, true), want: " | join a <nil>; complete 10; lease 3020"},
		{do: tickE("a", 20), want: "send [10,60) | "},
		{do: truncE(55), want: "tail from 55 | "},
		{do: ackE("a", 20, 60), want: " | complete 60", state: "need=1 mark=60 a{acked=60}"},
	})
}

// TestReplCoreDetach: a member an install drops stops, and a batch it
// had in flight counts for nothing when it lands: its ack, failure or
// snapshot chunk completes no record, moves no lease, and it is sent
// nothing more (TestInstallDetachesUnnamedMembers' end-to-end half). When the last
// voter goes, the unacknowledged window fails — a waiter registering
// late in it fails too, one below the watermark does not — and records
// from then on need no ack. The failed windows are bounded: the oldest
// is dropped past failRangesMax.
func TestReplCoreDetach(t *testing.T) {
	f := newCoreFixture("p", "a", "b")
	runRows(t, f, []coreRow{
		{do: attachE("a"), want: " | "},
		{do: attachE("b"), want: " | "},
		{do: emitE(1), want: " | "},
		{do: tickE("a", 0), want: "send [0,1) | "},
		{do: tickE("b", 0), want: "send [0,1) | "},
		{do: installE(3, "p", "a"), want: " | join b kvserver: mirror member detached", state: "need=1 mark=0 a{acked=0}"},
		{do: ackE("b", 0, 1), want: " | "},
		{do: failE("b", 0, errRefused), want: " | "},
		{do: func(f *coreFixture) string { f.c.chunk(f.m["b"], at(0), true); return "" }, want: " | "},
		{do: tickE("b", 5000), want: "stop | "},
		{do: ackE("a", 0, 1), want: " | join a <nil>; complete 1; lease 3000"},
		{do: emitE(3), want: " | "},
		{do: detachE("a"), want: " | fail [1,4) kvserver: mirror detached while awaiting replication; lease none", state: "need=0 mark=1 "},
		{do: tickE("a", 0), want: "stop | "},
	})
	for seq, failed := range map[uint64]bool{0: false, 1: true, 3: true, 4: false} {
		if got := f.c.failure(seq) != nil; got != failed {
			t.Fatalf("failure(%d) = %v, want %v", seq, got, failed)
		}
	}
	for i := 0; i < failRangesMax; i++ {
		f.attach("a")
		f.c.ack(f.m["a"], at(0), f.c.head)
		f.emit(1, 8)
		f.c.detach(func(string) bool { return true })
	}
	last := f.c.head - 1
	if len(f.c.failRanges) != failRangesMax || f.c.failure(1) != nil || f.c.failure(last) == nil {
		t.Fatalf("%d failed windows, failure(1)=%v failure(%d)=%v: want %d, the oldest dropped", len(f.c.failRanges), f.c.failure(1), last, f.c.failure(last), failRangesMax)
	}
}

// TestReplCoreBatchBounds: a batch takes at most mirrorBatchMaxRecords
// records and mirrorBatchBytes of them — but always one.
func TestReplCoreBatchBounds(t *testing.T) {
	f := newCoreFixture("p", "a")
	f.attach("a")
	f.emit(mirrorBatchMaxRecords+4, 8)
	f.emit(3, mirrorBatchBytes*3/4)
	for _, want := range []string{"send [0,256) | ", "send [256,261) | ", "send [261,262) | ", "send [262,263) | "} {
		if got := f.tick("a", 0) + " | " + f.effects(); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

// TestReplCoreLeaseRules is the lease's half of
// TestLeaseRidesTheMirrorStream, as rows: a pair whose only member broke
// serves until that member's last grant and no longer — a failed send
// grants nothing — and an rf=3 group with one member broken goes on
// serving on the other's heartbeats. A refusal carrying a newer
// configuration ends the sender: no batch, so no grant, follows it.
func TestReplCoreLeaseRules(t *testing.T) {
	runRows(t, newCoreFixture("p", "a"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: tickE("a", 0), want: "send [0,0) | "},
		{do: ackE("a", 0, 0), want: " | join a <nil>; lease 3000"},
		{do: tickE("a", 1000), want: "send [0,0) | "},
		{do: failE("a", 1500, errRefused), want: " | fail [0,∞) kvserver: replication quorum lost (0 of 1 members live, need 1): refused"},
		{do: tickE("a", 2500), want: "send [0,0) | "},
		{do: failE("a", 2600, errRefused), want: " | "},
		{do: tickE("a", 2700), want: "wait 4600 | "},
	})
	runRows(t, newCoreFixture("p", "a", "b"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: attachE("b"), want: " | "},
		{do: tickE("a", 0), want: "send [0,0) | "},
		{do: tickE("b", 0), want: "send [0,0) | "},
		{do: ackE("a", 0, 0), want: " | join a <nil>; lease 3000"},
		{do: ackE("b", 0, 0), want: " | join b <nil>"},
		{do: failE("b", 900, errRefused), want: " | "},
		{do: tickE("a", 1000), want: "send [0,0) | "},
		{do: ackE("a", 1000, 0), want: " | lease 4000"},
		{do: tickE("a", 2000), want: "send [0,0) | "},
		{do: ackE("a", 2000, 0), want: " | lease 5000"},
	})
	runRows(t, newCoreFixture("p", "a"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: tickE("a", 0), want: "send [0,0) | "},
		{do: ackE("a", 0, 0), want: " | join a <nil>; lease 3000"},
		{do: tickE("a", 1000), want: "send [0,0) | "},
		{do: failE("a", 1000, &kv.WrongEpochError{Epoch: 3, Members: []string{"x", "a"}}), want: " | fail [0,∞) kvserver: replication quorum lost (0 of 1 members live, need 1): kv: wrong epoch: epoch=3 members=x,a"},
		{do: tickE("a", 9000), want: "stop | "},
		{do: ackE("a", 1000, 0), want: " | "},
	})
}

// TestReplCoreRestart: a snapshot installed under the attached members
// moves every member's position to the snapshot's.
func TestReplCoreRestart(t *testing.T) {
	runRows(t, newCoreFixture("p", "a"), []coreRow{
		{do: attachE("a"), want: " | "},
		{do: emitE(2), want: " | "},
		{do: func(f *coreFixture) string { f.restart(40, 1); return "" }, want: " | "},
		{do: emitE(1), want: " | "},
		{do: tickE("a", 0), want: "send [40,41) | "},
	})
}

// TestDeposedStorePushesNothing: a store whose adopted epoch is past the
// one its stream installed has been deposed. Asked for a snapshot, it
// captures nothing to push: the member's sender ends, and its join is
// answered with the configuration that deposed it.
func TestDeposedStorePushesNothing(t *testing.T) {
	p := NewStore(nil, Config{})
	p.SetSelf("p")
	if err := p.InstallEpoch(2, []string{"p", "b"}); err != nil {
		t.Fatal(err)
	}
	p.AdoptEpoch(3, []string{"x", "b"})
	var sends atomic.Int32
	err := <-p.AttachMirrorMember("b", func(*kv.MirrorBatchReq) error {
		sends.Add(1)
		return kv.ErrDiverged
	})
	defer p.DetachAllMirrorMembers()
	var we *kv.WrongEpochError
	if !errors.As(err, &we) || we.Epoch != 3 {
		t.Fatalf("join of a member a deposed store was to push: %v, want its epoch 3", err)
	}
	if n, served := sends.Load(), p.Stats().SnapshotsServed; n != 1 || served != 0 {
		t.Fatalf("%d sends, %d snapshots served: want the probe alone", n, served)
	}
}
