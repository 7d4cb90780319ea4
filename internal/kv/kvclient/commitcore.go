package kvclient

// The client's side of the commit, as values that hold no lock, context,
// clock or connection: commitCore takes every decision of a commit, and
// retryTable every decision of a call whose attempt failed. Tx.commitOps
// and call carry them out and feed back what came of it.
//
// A transaction's ops, grouped by owning group, are its participants.
// One is fast-committed: one round trip is its vote and the decision.
// Several are prepared; one "no" (a refusal, a reply that does not
// decode, a prepare with no answer) aborts every participant, and the
// commit fails with the first refusal. Once every vote is yes the commit
// is decided at the largest proposal, the votes' cell counts become
// readable, and the decision goes to every participant; one whose group
// takes it from no member leaves the commit incomplete.

import (
	"fmt"
	"slices"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// partState is where one participant of a commit stands.
type partState uint8

const (
	unsent partState = iota // nothing of it reached the participant
	sent                    // asked to vote (or to fast-commit), no answer yet
	votedYes
	votedNo
	decided   // took the decision, commit or abort
	uncertain // may hold what it was sent, and no answer came
)

// participant is one group's share of a commit.
type participant struct {
	server   int
	ops      []*kv.Op
	state    partState
	proposed clock.Timestamp // its yes vote's commit timestamp
	cells    []uint64        // its yes vote's answers to its kv.OpCmpMaxCells ops
	err      error           // its refusal, or why its decision did not land
}

// actKind is what the core asks of the coordinator.
type actKind uint8

const (
	actFastCommit actKind = iota // send the participant its ops as a one-shot commit
	actPrepare                   // ask the participant to vote
	actDecide                    // send the participant the commit at ts
	actAbort                     // send the participant the abort
	actDone                      // the commit is over, with err
)

// commitAction is one thing the core asks for.
type commitAction struct {
	kind actKind
	p    int             // the participant
	ts   clock.Timestamp // actDecide's commit timestamp
	err  error           // actDone's outcome
}

// commitCore is one commit in progress: a round of actions, one per
// participant, each answered by one event; the last returns the next.
type commitCore struct {
	parts    []participant
	round    actKind         // what the current round sends
	pending  int             // its answers still to come
	refusal  error           // the first refusal of the votes
	commitTS clock.Timestamp // the decision; zero until every vote is yes
	acts     []commitAction  // the actions last returned, reused
	oneP     [1]participant  // a fast commit's parts and acts
	oneA     [1]commitAction
}

// newCommitCore groups ops by the group (of groups) that owns them, the
// participants in order of first appearance. A fast commit's are all the
// ops, uncopied.
func newCommitCore(ops []*kv.Op, groups int) *commitCore {
	c := &commitCore{}
	c.parts, c.acts = c.oneP[:0], c.oneA[:0]
	for _, op := range ops {
		if s := op.OID.Group(groups); !slices.ContainsFunc(c.parts, func(p participant) bool { return p.server == s }) {
			c.parts = append(c.parts, participant{server: s})
		}
	}
	if len(c.parts) == 1 {
		c.parts[0].ops = ops
		return c
	}
	for p := range c.parts {
		for _, op := range ops {
			if op.OID.Group(groups) == c.parts[p].server {
				c.parts[p].ops = append(c.parts[p].ops, op)
			}
		}
	}
	return c
}

// start returns the first round: a fast commit or the prepares.
func (c *commitCore) start() []commitAction {
	if len(c.parts) == 1 {
		return c.send(actFastCommit)
	}
	return c.send(actPrepare)
}

// voted: p answered its prepare or fast commit, yes at proposed with
// cells, or no with err.
func (c *commitCore) voted(p int, proposed clock.Timestamp, cells []uint64, err error) []commitAction {
	c.parts[p].proposed, c.parts[p].cells = proposed, cells
	return c.answer(p, votedYes, votedNo, err)
}

// sendFailed: p's prepare or fast commit got no answer (err), and sent
// says whether it may have reached p.
func (c *commitCore) sendFailed(p int, sent bool, err error) []commitAction {
	if sent {
		return c.answer(p, uncertain, uncertain, err)
	}
	return c.answer(p, unsent, unsent, err)
}

// acked: p's group took its decision or abort, or (err) no member did.
func (c *commitCore) acked(p int, err error) []commitAction {
	return c.answer(p, decided, uncertain, err)
}

// answer files p's answer, its state ok or (err) failed, and decides.
func (c *commitCore) answer(p int, ok, failed partState, err error) []commitAction {
	part := &c.parts[p]
	part.state, part.err = ok, err
	if err != nil {
		part.state = failed
	}
	if c.pending--; c.pending > 0 {
		return nil
	}
	bad := slices.IndexFunc(c.parts, func(p participant) bool { return p.err != nil })
	switch {
	case c.round == actAbort:
		return c.done(c.refusal)
	case c.round == actDecide && bad >= 0:
		return c.done(fmt.Errorf("kv: commit incomplete: commit on server %d: %w", c.parts[bad].server, c.parts[bad].err))
	case c.round == actDecide:
		return c.done(nil)
	case bad >= 0 && c.round == actPrepare:
		c.refusal = c.parts[bad].err
		return c.send(actAbort)
	case bad >= 0:
		return c.done(c.parts[bad].err)
	}
	for i := range c.parts {
		c.commitTS = max(c.commitTS, c.parts[i].proposed)
	}
	if c.round == actPrepare {
		return c.send(actDecide)
	}
	c.parts[0].state = decided
	return c.done(nil)
}

func (c *commitCore) done(err error) []commitAction {
	c.acts = append(c.acts[:0], commitAction{kind: actDone, err: err})
	return c.acts
}

// send starts a round of kind, one action per participant.
func (c *commitCore) send(kind actKind) []commitAction {
	c.round, c.pending, c.acts = kind, len(c.parts), c.acts[:0]
	for p := range c.parts {
		c.acts = append(c.acts, commitAction{kind: kind, p: p, ts: c.commitTS})
		if kind <= actPrepare {
			c.parts[p].state = sent
		}
	}
	return c.acts
}

// cells returns the cell count the commit left oid with, for an object
// its ops bounded with kv.OpCmpMaxCells, once every vote is yes. A
// participant whose reply does not answer each of its bounds reports
// nothing, and so does a commit that has not run (c nil).
func (c *commitCore) cells(oid kv.OID) (int, bool) {
	if c == nil || c.commitTS == 0 {
		return 0, false
	}
	for _, p := range c.parts {
		at, n := -1, 0
		for _, op := range p.ops {
			if op.Kind != kv.OpCmpMaxCells {
				continue
			}
			if op.OID == oid && at < 0 {
				at = n
			}
			n++
		}
		if at >= 0 && n == len(p.cells) {
			return int(p.cells[at]), true
		}
	}
	return 0, false
}

// failure is how one attempt of a call failed.
type failure uint8

const (
	notSent       failure = iota // the request provably never left this process
	unanswered                   // sent, and no reply came: it may have been executed
	epochTaught                  // refused as stale: the group now knows a newer epoch
	epochUntaught                // refused for its epoch, and nothing new was learned
	errReply                     // any other error reply (or a reply that does not decode)
	ctxDone                      // the caller's context ended
	nFailures
)

// replied reports whether the server answered (and refused).
func (f failure) replied() bool { return f >= epochTaught && f <= errReply }

// outcome is what a call does about a failed attempt.
type outcome uint8

const (
	fail          outcome = iota // return the error (an unlisted method never retries)
	failUncertain                // return it as kv.ErrUncertain
	retryNow                     // send again now, to the member the group prefers
	nextMember                   // drop the member, and send to the next after wrongEpochPause
)

// retryTable is every call's answer to every failure, by method (the
// package comment gives the reasons).
var retryTable = map[string][nFailures]outcome{
	kv.MethodReadPart:   idempotent,
	kv.MethodReadBatch:  idempotent,
	kv.MethodPing:       idempotent,
	kv.MethodFastCommit: {notSent: retryNow, unanswered: failUncertain, epochTaught: retryNow, epochUntaught: nextMember},
	kv.MethodPrepare:    {notSent: retryNow, unanswered: fail, epochTaught: retryNow, epochUntaught: nextMember},
	kv.MethodCommit:     idempotent,
	kv.MethodAbort:      idempotent,
}

var idempotent = [nFailures]outcome{notSent: retryNow, unanswered: retryNow, epochTaught: retryNow, epochUntaught: nextMember}

// maxEpochHops bounds how many wrong-epoch refusals that taught a call
// nothing it follows. Those that taught a newer epoch are bounded by the
// group's epochs.
const maxEpochHops = 4

// retry returns method's outcome for failure f after hops untaught
// refusals.
func retry(method string, f failure, hops int) outcome {
	o := retryTable[method][f]
	if o == nextMember && hops >= maxEpochHops {
		return fail
	}
	return o
}
