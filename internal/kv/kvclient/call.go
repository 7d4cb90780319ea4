package kvclient

import (
	"context"
	"errors"
	"fmt"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/rpc"
)

// wrongEpochPause spaces the attempts after a wrong-epoch refusal that
// taught nothing (retryTable's nextMember).
const wrongEpochPause = 2 * time.Millisecond

// call issues method(enc(epoch)) against server slot's current replica,
// encoding each attempt with the freshest epoch known. A failed attempt
// is classed and method's row of retryTable says what follows; call
// returns the last failure's class with its error. An error reply's
// clock is merged; a transport failure drops the connection, pointing
// the group at its next replica. The walk over the replicas restarts
// when a newer epoch was learned, and ends one attempt past their count.
func (c *Client) call(ctx context.Context, server int, method string, enc func(epoch uint64) []byte) ([]byte, failure, error) {
	g := c.groups[server]
	var lastErr error
	last := notSent
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
				return nil, last, lastErr
			}
			return nil, notSent, err
		}
		stamp := g.epochNow()
		resp, err := conn.Call(ctx, method, enc(stamp))
		if err == nil {
			return resp, 0, nil
		}
		f := unanswered
		var app *rpc.AppError
		switch {
		case errors.As(err, &app):
			// A failed commit may still have installed state at the
			// server's clock: merging it makes this client's next snapshot
			// cover whatever the failed call left behind.
			var ts kv.Timestamp
			err, ts = kv.DecodeError(err)
			c.hlc.Observe(ts)
			f = errReply
			var we *kv.WrongEpochError
			if errors.As(err, &we) {
				g.noteEpoch(we.Epoch, we.Members)
				f = epochUntaught
				if g.epochNow() > stamp {
					f = epochTaught
				}
			}
		case ctx.Err() != nil:
			f = ctxDone
		default:
			g.invalidate(conn)
			if errors.Is(err, rpc.ErrNotSent) {
				f = notSent
			}
		}
		lastErr, last = err, f
		switch retry(method, f, epochHops) {
		case fail:
			return nil, f, err
		case failUncertain:
			return nil, f, fmt.Errorf("%w: %v", kv.ErrUncertain, err)
		case nextMember:
			// A backup's refusal, or a leaseless primary's: how a group looks
			// while a promotion or a new epoch's first lease grant is in
			// flight, which a walk that outran it would fail.
			epochHops++
			g.invalidate(conn)
			if pause == nil {
				pause = time.NewTimer(wrongEpochPause)
			} else {
				pause.Reset(wrongEpochPause) // it fired and was drained below
			}
			select {
			case <-pause.C:
			case <-ctx.Done():
				return nil, ctxDone, ctx.Err()
			}
		case retryNow:
			if f == epochTaught {
				attempt = -1
			}
		}
	}
	return nil, last, lastErr
}

// observeAck merges an ack's clock and configuration piggybacks.
func (c *Client) observeAck(server int, ack *kv.Ack) {
	c.hlc.Observe(ack.Clock)
	c.groups[server].noteEpoch(ack.Epoch, ack.Members)
}

// Ping round-trips to server slot i, merging clocks and learning the
// slot's current epoch and membership from the ack piggyback.
func (c *Client) Ping(ctx context.Context, server int) error {
	resp, _, err := c.call(ctx, server, kv.MethodPing, func(uint64) []byte { return nil })
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
