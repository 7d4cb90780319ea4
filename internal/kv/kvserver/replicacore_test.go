package kvserver

// Event tables for the backup's side of the replication protocol: each
// row feeds replicaCore one event — no goroutine, no sleep, no store,
// time as an argument — and checks its verdict, rendered as text, and,
// when the row says so, the core's state afterwards.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"yesquel/internal/kv"
)

// newReplicaFixture is a core whose member "b" backs "a" at epoch 2,
// its stream having installed that epoch at 0 ms.
func newReplicaFixture() *replicaCore {
	c := newReplicaCore(coreLease)
	c.rename("b")
	c.install(2, []string{"a", "b"}, at(0))
	return &c
}

// replicaState renders what every row may pin.
func replicaState(c *replicaCore) string {
	s := fmt.Sprintf("epoch=%d [%s] stream=%d %s", c.epoch, strings.Join(c.members, ","), c.streamEpoch, c.role())
	if !c.since.IsZero() {
		s += fmt.Sprintf(" since=%d", c.since.Sub(at(0)).Milliseconds())
	}
	if !c.grant.IsZero() {
		s += fmt.Sprintf(" grant=%d", c.grant.Sub(at(0)).Milliseconds())
	}
	if c.promoting {
		s += " promoting"
	}
	if c.pushing {
		s += fmt.Sprintf(" push=%d@%d", c.pushLen, c.pushFrom)
	}
	return s
}

// verdict renders an event's refusal, or ok.
func verdict(err error) string {
	var we *kv.WrongEpochError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &we):
		return fmt.Sprintf("wrong epoch %d [%s]", we.Epoch, strings.Join(we.Members, ","))
	case errors.Is(err, kv.ErrBadRequest):
		return "bad request"
	case errors.Is(err, kv.ErrDiverged):
		return "diverged"
	}
	return err.Error()
}

// replicaRow is one event and its rendered verdict; state, when set, is
// the core's state afterwards.
type replicaRow struct {
	do    func(c *replicaCore) string
	want  string
	state string
}

func runReplicaRows(t *testing.T, c *replicaCore, rows []replicaRow) {
	t.Helper()
	for i, r := range rows {
		if got := r.do(c); got != r.want {
			t.Fatalf("row %d: got %q, want %q\n(state %s)", i, got, r.want, replicaState(c))
		}
		if r.state != "" && replicaState(c) != r.state {
			t.Fatalf("row %d: state %s, want %s", i, replicaState(c), r.state)
		}
	}
}

// Events, as rows.
func epochRec(epoch uint64, members ...string) kv.ReplRecord {
	return kv.ReplRecord{Kind: kv.RecEpoch, Epoch: epoch, Members: members}
}
func batchE(ms int, epoch uint64, recs ...kv.ReplRecord) func(*replicaCore) string {
	return func(c *replicaCore) string {
		grant, err := c.batch(epoch, recs, at(ms))
		if err != nil {
			return verdict(err)
		}
		return fmt.Sprintf("grant %d", grant.Sub(at(0)).Milliseconds())
	}
}
func recordsE(from, head uint64) func(*replicaCore) string {
	return func(c *replicaCore) string {
		if gap := c.records(from, head); gap != nil {
			return fmt.Sprintf("gap head=%d epoch=%d", gap.Head, gap.StreamEpoch)
		}
		return "apply"
	}
}
func chunkE(off, from uint64, n int, last bool) func(*replicaCore) string {
	return func(c *replicaCore) string {
		complete, err := c.chunk(off, from, n, last)
		if err != nil {
			return verdict(err)
		}
		return map[bool]string{false: "keep", true: "complete"}[complete]
	}
}
func snapshotE(epoch, seq uint64, members ...string) func(*replicaCore) string {
	return func(c *replicaCore) string { return verdict(c.snapshot(epoch, members, seq)) }
}
func recordE(kind uint8, epoch uint64) func(*replicaCore) string {
	return func(c *replicaCore) string { return verdict(c.record(&kv.ReplRecord{Kind: kind, Epoch: epoch}, 7)) }
}
func adoptE(ms int, epoch uint64, members ...string) func(*replicaCore) string {
	return func(c *replicaCore) string { return fmt.Sprint(c.adopt(epoch, members, at(ms))) }
}
func installReplicaE(ms int, epoch uint64, members ...string) func(*replicaCore) string {
	return func(c *replicaCore) string { return fmt.Sprint(c.install(epoch, members, at(ms))) }
}
func promoteE(c *replicaCore) string { c.beginPromotion(); return "" }

// TestReplicaCoreBatchAndGrant: a batch at the epoch in force, or a newer
// one, is accepted, and extends the grant to its receipt plus the lease —
// never back. One stamped with an older epoch comes from a deposed
// primary and is refused with the configuration in force, and extends
// nothing.
func TestReplicaCoreBatchAndGrant(t *testing.T) {
	runReplicaRows(t, newReplicaFixture(), []replicaRow{
		{do: batchE(100, 2), want: "grant 3100", state: "epoch=2 [a,b] stream=2 backup since=0 grant=3100"},
		{do: batchE(50, 2), want: "grant 3100"}, // a batch received earlier moves nothing back
		{do: batchE(200, 3), want: "grant 3200"},
		{do: batchE(900, 1), want: "wrong epoch 2 [a,b]", state: "epoch=2 [a,b] stream=2 backup since=0 grant=3200"},
	})
}

// TestReplicaCorePromotionFreeze: from beginPromotion until the next
// configuration comes into force, every batch is refused and extends no
// grant, so no ack in flight can stretch the old primary's authority
// past the grant the promotion waits out. Adopting the winner's epoch
// ends the freeze; a configuration no newer does not.
func TestReplicaCorePromotionFreeze(t *testing.T) {
	runReplicaRows(t, newReplicaFixture(), []replicaRow{
		{do: batchE(100, 2), want: "grant 3100"},
		{do: promoteE, want: ""},
		{do: batchE(200, 2), want: "wrong epoch 2 [a,b]", state: "epoch=2 [a,b] stream=2 backup since=0 grant=3100 promoting"},
		{do: batchE(200, 3), want: "wrong epoch 2 [a,b]"},
		{do: adoptE(300, 2, "a", "b"), want: "false", state: "epoch=2 [a,b] stream=2 backup since=0 grant=3100 promoting"},
		{do: adoptE(400, 3, "b", "c"), want: "true", state: "epoch=3 [b,c] stream=2 primary since=400 grant=3100"},
		{do: batchE(500, 3), want: "grant 3500"},
	})
}

// TestReplicaCoreConfigAtTheAdoptedEpoch: a loser of a failover adopts
// its winner's epoch out of band. A configuration change at that epoch —
// in a mirrored RecEpoch or a pushed snapshot — must carry the membership
// it adopted: a deposed primary re-forming its own group under the same
// epoch number collects no ack and rebuilds nothing. A newer one is
// accepted whatever it lists.
func TestReplicaCoreConfigAtTheAdoptedEpoch(t *testing.T) {
	runReplicaRows(t, newReplicaFixture(), []replicaRow{
		{do: adoptE(10, 3, "w", "b"), want: "true", state: "epoch=3 [w,b] stream=2 backup since=10"},
		{do: batchE(20, 3, epochRec(3, "x", "b")), want: "wrong epoch 3 [w,b]", state: "epoch=3 [w,b] stream=2 backup since=10"},
		{do: chunkE(0, 9, 5, false), want: "keep"},
		{do: chunkE(5, 9, 0, true), want: "complete"},
		{do: snapshotE(3, 9, "x", "b"), want: "wrong epoch 3 [w,b]"},
		{do: snapshotE(3, 9, "w", "b"), want: "ok"},
		{do: batchE(30, 3, epochRec(3, "w", "b")), want: "grant 3030"},
		{do: batchE(40, 3, epochRec(4, "z")), want: "grant 3040"},
	})
}

// TestReplicaCoreStaleConfiguration: a configuration change older than
// the adopted epoch is history a member still catching up lacks — its
// winner applied it and it missed it — and is accepted while the stream
// has not installed the adopted epoch. Once it has, nothing older is
// legitimate: a deposed primary's RecEpoch or snapshot is refused.
func TestReplicaCoreStaleConfiguration(t *testing.T) {
	runReplicaRows(t, newReplicaFixture(), []replicaRow{
		{do: adoptE(10, 4, "w", "b"), want: "true"},
		{do: batchE(20, 4, epochRec(3, "w", "b", "c"), epochRec(4, "w", "b")), want: "grant 3020"},
		{do: snapshotE(3, 0, "w", "b", "c"), want: "ok"},
		{do: installReplicaE(30, 3, "w", "b", "c"), want: "false", state: "epoch=4 [w,b] stream=3 backup since=10 grant=3020"},
		{do: installReplicaE(40, 4, "w", "b"), want: "false", state: "epoch=4 [w,b] stream=4 backup since=10 grant=3020"},
		{do: batchE(50, 4, epochRec(3, "x", "b")), want: "wrong epoch 4 [w,b]"},
		{do: snapshotE(3, 0, "x", "b"), want: "wrong epoch 4 [w,b]"},
		{do: snapshotE(1, 0, "x"), want: "ok"}, // epoch 1: a store's own group, nothing to guard
	})
}

// TestReplicaCoreGapAndPush: records apply only at the head; elsewhere
// the batch is a gap answered with the head and the stream epoch. A
// snapshot push starts at offset 0 and must be extended exactly, by
// offset and position; a batch of records abandons it, and a late piece
// of it is refused. The completed push is installed only if it covers
// the position it announced.
func TestReplicaCoreGapAndPush(t *testing.T) {
	runReplicaRows(t, newReplicaFixture(), []replicaRow{
		{do: recordsE(5, 5), want: "apply"},
		{do: recordsE(8, 5), want: "gap head=5 epoch=2"},
		{do: recordsE(3, 5), want: "gap head=5 epoch=2"},
		{do: chunkE(0, 20, 4, false), want: "keep", state: "epoch=2 [a,b] stream=2 backup since=0 push=4@20"},
		{do: chunkE(4, 20, 4, false), want: "keep"},
		{do: chunkE(4, 20, 4, false), want: "bad request"},
		{do: chunkE(8, 21, 4, false), want: "bad request"},
		{do: recordsE(5, 5), want: "apply", state: "epoch=2 [a,b] stream=2 backup since=0"},
		{do: chunkE(8, 20, 0, true), want: "bad request"},
		{do: chunkE(0, 30, 6, false), want: "keep"},
		{do: chunkE(0, 31, 2, false), want: "keep", state: "epoch=2 [a,b] stream=2 backup since=0 push=2@31"},
		{do: chunkE(2, 31, 0, true), want: "complete", state: "epoch=2 [a,b] stream=2 backup since=0"},
		{do: chunkE(2, 31, 0, true), want: "bad request"},
		{do: snapshotE(2, 30, "a", "b"), want: "bad request"},
		{do: snapshotE(2, 31, "a", "b"), want: "ok"},
	})
}

// TestReplicaCoreSpliceGuard: every record applied at the head must be
// stamped with the epoch the stream installed there, and a RecEpoch must
// advance it — checked against the stream epoch, not the adopted one, so
// a member that adopted a successor's epoch out of band still applies the
// RecEpoch that installs it, and rejects the successor's records until
// it has.
func TestReplicaCoreSpliceGuard(t *testing.T) {
	runReplicaRows(t, newReplicaFixture(), []replicaRow{
		{do: recordE(kv.RecCommit, 2), want: "ok"},
		{do: recordE(kv.RecCommit, 1), want: "diverged"},
		{do: recordE(kv.RecPrepare, 3), want: "diverged"},
		{do: recordE(kv.RecEpoch, 2), want: "diverged"},
		{do: adoptE(10, 3, "w", "b"), want: "true"},
		{do: recordE(kv.RecDecide, 3), want: "diverged"},
		{do: recordE(kv.RecEpoch, 3), want: "ok"},
		{do: installReplicaE(20, 3, "w", "b"), want: "false", state: "epoch=3 [w,b] stream=3 backup since=10"},
		{do: recordE(kv.RecCommit, 3), want: "ok"},
		{do: recordE(kv.RecCommit, 2), want: "diverged"},
	})
}

// TestReplicaCoreRoles: a store is born the sole primary of its own
// group, keeps its place under its address, and is a backup, or removed,
// as the membership in force places it. The since mark moves only with
// a configuration that comes into force.
func TestReplicaCoreRoles(t *testing.T) {
	c := newReplicaCore(coreLease)
	runReplicaRows(t, &c, []replicaRow{
		{do: func(c *replicaCore) string { return c.role() }, want: RolePrimary, state: "epoch=1 [] stream=1 primary"},
		{do: func(c *replicaCore) string { c.rename("a"); return c.role() }, want: RolePrimary, state: "epoch=1 [a] stream=1 primary"},
		{do: installReplicaE(5, 2, "x", "a"), want: "true", state: "epoch=2 [x,a] stream=2 backup since=5"},
		{do: installReplicaE(6, 2, "a"), want: "false", state: "epoch=2 [x,a] stream=2 backup since=5"},
		{do: adoptE(7, 3, "x", "y"), want: "true", state: "epoch=3 [x,y] stream=2 removed since=7"},
		{do: func(c *replicaCore) string { return verdict(c.wrongEpoch()) }, want: "wrong epoch 3 [x,y]"},
	})
}
