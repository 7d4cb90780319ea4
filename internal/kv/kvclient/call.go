package kvclient

import (
	"context"
	"errors"
	"fmt"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/rpc"
)

// callPolicy says how call handles a transport failure after the
// request may have reached the server.
type callPolicy int

const (
	// retryAlways: the operation is idempotent; retry on the next
	// replica regardless of whether the first attempt was delivered.
	// (A read retried on a backup while the primary is still alive is
	// refused, not served stale: an unpromoted backup answers every
	// client operation with ErrWrongEpoch.)
	retryAlways callPolicy = iota
	// retryUnsent: retry only when the request provably never left this
	// process (rpc.ErrNotSent); a sent-but-unacknowledged attempt fails
	// with the transport error. Used for Prepare: re-preparing on a
	// backup while the primary may still hold the first vote would
	// stage the transaction on two replicas at once.
	retryUnsent
	// retryUnsentUncertain: like retryUnsent, but a sent-but-
	// unacknowledged attempt surfaces kv.ErrUncertain. Used for fast
	// commits, which may have been applied and replicated before the
	// acknowledgment was lost and are not idempotent (a one-shot
	// transaction leaves no prepared state to retry against). Phase-two
	// decisions of two-phase commit, by contrast, retry with
	// retryAlways: prepares and decisions are replicated and
	// remembered, so a duplicate is acknowledged server-side.
	retryUnsentUncertain
)

// maxEpochHops bounds how many ErrWrongEpoch redirects that taught a
// call nothing it will follow. A redirect past the epoch the request was
// stamped with is not counted: the next attempt is stamped with a
// strictly higher epoch, so those are bounded by the group's epochs.
const maxEpochHops = 4

// wrongEpochPause spaces the retries of a redirect that taught nothing
// (see call).
const wrongEpochPause = 2 * time.Millisecond

// call issues method(enc(epoch)) against server slot's current
// replica; enc re-encodes the request on every attempt so retries
// always carry the freshest known group epoch. Transport failures
// rotate the group to the next replica and retry according to policy.
// An error reply is decoded once (kv.DecodeError) and its clock merged.
// A reply of code CodeWrongEpoch guarantees the operation was not
// executed, so — for every policy — the call retries. A request stamped
// below the epoch the group now knows (this reply taught it, or a
// concurrent call's did) was only stale: it retries at once on the
// group's connection, which other calls may be using. A reply that
// taught nothing rotates to the next replica.
// Other error replies and context cancellation never fail over; they
// return the decoded error.
func (c *Client) call(ctx context.Context, server int, method string, enc func(epoch uint64) []byte, policy callPolicy) ([]byte, error) {
	g := c.group(server)
	var lastErr error
	epochHops := 0
	// One reusable timer for every wrong-epoch pause of this call.
	var pause *time.Timer
	defer func() {
		if pause != nil {
			pause.Stop()
		}
	}()
	for attempt := 0; attempt <= g.size(); attempt++ {
		conn, err := g.get()
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		stamp := g.epochNow()
		resp, err := conn.Call(ctx, method, enc(stamp))
		if err == nil {
			return resp, nil
		}
		var app *rpc.AppError
		if errors.As(err, &app) {
			// A failed commit may still have installed state at the
			// server's clock: merging it makes this client's next snapshot
			// cover whatever the failed call left behind.
			err, ts := kv.DecodeError(err)
			c.hlc.Observe(ts)
			var we *kv.WrongEpochError
			if !errors.As(err, &we) {
				return nil, err
			}
			lastErr = err
			g.noteEpoch(we.Epoch, we.Members)
			if g.epochNow() > stamp {
				// This request was stale: start the replica walk over with
				// the configuration now known (the preferred member may
				// have changed under us).
				attempt = -1
				continue
			}
			if epochHops >= maxEpochHops {
				return nil, err
			}
			epochHops++
			// Nothing new learned (a backup bounced us, or a primary
			// without a lease): try the next replica — after a pause,
			// because both are what a group looks like for the moment a
			// promotion or a fresh epoch's first lease grant is in flight,
			// and a walk that outruns it fails an operation the new
			// configuration would have served.
			g.invalidate(conn)
			if pause == nil {
				pause = time.NewTimer(wrongEpochPause)
			} else {
				pause.Reset(wrongEpochPause) // it fired and was drained below
			}
			select {
			case <-pause.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		if ctx.Err() != nil {
			return nil, err
		}
		g.invalidate(conn)
		lastErr = err
		if policy != retryAlways && !errors.Is(err, rpc.ErrNotSent) {
			if policy == retryUnsentUncertain {
				return nil, fmt.Errorf("%w: %v", kv.ErrUncertain, err)
			}
			return nil, err
		}
	}
	return nil, lastErr
}

// observeAck merges an ack's clock and configuration piggybacks.
func (c *Client) observeAck(server int, ack *kv.Ack) {
	c.hlc.Observe(ack.Clock)
	c.group(server).noteEpoch(ack.Epoch, ack.Members)
}

// Ping round-trips to server slot i, merging clocks and learning the
// slot's current epoch and membership from the ack piggyback.
func (c *Client) Ping(ctx context.Context, server int) error {
	resp, err := c.call(ctx, server, kv.MethodPing, func(uint64) []byte { return nil }, retryAlways)
	if err != nil {
		return err
	}
	ack, err := kv.DecodeAck(resp)
	if err != nil {
		return err
	}
	c.observeAck(server, ack)
	return nil
}
