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

// maxEpochHops bounds how many ErrWrongEpoch redirects one call will
// follow. Each productive hop strictly increases the group's known
// epoch; the bound only guards against a pathological ping-pong.
const maxEpochHops = 4

// wrongEpochPause spaces the retries of a redirect that taught nothing
// (see call).
const wrongEpochPause = 2 * time.Millisecond

// call issues method(enc(epoch)) against server slot's current
// replica; enc re-encodes the request on every attempt so retries
// always carry the freshest known group epoch. Transport failures
// rotate the group to the next replica and retry according to policy.
// An ErrWrongEpoch rejection guarantees the operation was not
// executed, so — for every policy — the client adopts the carried
// configuration (or rotates, if it learned nothing new) and retries.
// Other application errors and context cancellation never fail over.
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
		resp, err := conn.Call(ctx, method, enc(g.epochNow()))
		if err == nil {
			return resp, nil
		}
		var app *rpc.AppError
		if errors.As(err, &app) {
			if ts, ok := kv.ParseClockMark(app.Msg); ok {
				// A commit-path failure that still installed state at the
				// server: merge its clock so this client's next snapshot
				// covers whatever the failed call left behind.
				c.hlc.Observe(ts)
			}
			we, ok := kv.ParseWrongEpoch(app.Msg)
			if !ok || epochHops >= maxEpochHops {
				return nil, err
			}
			epochHops++
			lastErr = err
			if g.noteEpoch(we.Epoch, we.Members) {
				// New configuration adopted: start the replica walk over
				// (the preferred member changed under us).
				attempt = -1
				continue
			}
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

// observeAck merges an ack's clock, configuration and directory-version
// piggybacks. A newer directory version triggers a background fetch of
// the full map — so every client touching a group, even only through
// its heartbeat ping, converges on the new routing without a redirect.
func (c *Client) observeAck(server int, ack *kv.Ack) {
	c.hlc.Observe(ack.Clock)
	c.group(server).noteEpoch(ack.Epoch, ack.Members)
	if ack.DirVersion > c.DirectoryVersion() {
		c.fetchDirectoryAsync(server)
	}
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

// translateRPCErr maps application errors from the server back to the
// package's sentinel errors so callers can match with errors.Is. The
// match is by wire code (rpc.AppError.Code, assigned by the server's
// error coder, which ranks an uncertain commit above the not-executed
// sentinels its message may embed — see kv.WireErrorCode).
func translateRPCErr(err error) error {
	var app *rpc.AppError
	if errors.As(err, &app) {
		switch app.Code {
		case kv.CodeUncertain:
			// A commit that failed its replication/durability wait: the
			// record is in the primary's local stream but the backup's
			// acknowledgment never came, so whether it survives a
			// failover is unknown — the same contract as a lost ack.
			return fmt.Errorf("%w: %s", kv.ErrUncertain, app.Msg)
		case kv.CodeConflict:
			return fmt.Errorf("%w: %s", kv.ErrConflict, app.Msg)
		case kv.CodeWrongEpoch:
			return fmt.Errorf("%w: %s", kv.ErrWrongEpoch, app.Msg)
		case kv.CodeWrongSlot:
			// Keep the typed redirect: the data paths re-route on it
			// (retryWrongSlot) instead of surfacing it.
			if ws, ok := kv.ParseWrongSlot(app.Msg); ok {
				return ws
			}
			return fmt.Errorf("%w: %s", kv.ErrWrongSlot, app.Msg)
		case kv.CodeBadRequest:
			return fmt.Errorf("%w: %s", kv.ErrBadRequest, app.Msg)
		case kv.CodeConstraintFailed, kv.CodeRouteFailed:
			// A compare op failed: the typed error names the op's kind
			// and the object, which the layer that staged it maps back.
			if ce, ok := kv.ParseCompare(app.Msg); ok {
				return ce
			}
			return fmt.Errorf("%w: %s", kv.ErrCompare, app.Msg)
		}
	}
	return err
}
