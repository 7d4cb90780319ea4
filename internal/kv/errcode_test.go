package kv

import (
	"errors"
	"fmt"
	"testing"

	"yesquel/internal/rpc"
	"yesquel/internal/wire"
)

// crossWire sends err through a kv server's error coder at clock now
// and back through DecodeError, as an error reply travels: it returns
// what the client sees and the clock it learns.
func crossWire(err error, now Timestamp) (error, Timestamp) {
	var detail wire.Buffer
	code := WireErrorCode(err, now, &detail)
	return DecodeError(&rpc.AppError{Msg: err.Error(), Code: code, Detail: detail.Bytes()})
}

// wireCode is err's wire code, its detail dropped.
func wireCode(err error) uint64 {
	var detail wire.Buffer
	return WireErrorCode(err, 0, &detail)
}

func TestWireErrorCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want uint64
	}{
		{nil, 0},
		{ErrConflict, CodeConflict},
		{ErrAborted, CodeAborted},
		{ErrNotFound, CodeNotFound},
		{ErrBadRequest, CodeBadRequest},
		{ErrUncertain, CodeUncertain},
		{ErrDiverged, CodeDiverged},
		{ErrWrongEpoch, CodeWrongEpoch},
		{ErrSnapSessionExpired, CodeSnapSessionExpired},
		{fmt.Errorf("wrapped: %w", ErrConflict), CodeConflict},
		{&WrongEpochError{Epoch: 3, Members: []string{"a"}}, CodeWrongEpoch},
		{&CompareError{Op: OpCmpAbsent, OID: 1}, CodeCompare},
		{fmt.Errorf("unclassified"), 0},
	}
	for _, c := range cases {
		if got := wireCode(c.err); got != c.want {
			t.Errorf("WireErrorCode(%v) = %d, want %d", c.err, got, c.want)
		}
		if c.err == nil {
			continue
		}
		back, _ := crossWire(c.err, 1)
		if back.Error() != c.err.Error() {
			t.Errorf("%v: decoded text %q", c.err, back)
		}
		for _, row := range wireErrors {
			if want := row.code == c.want; errors.Is(back, row.err) != want {
				t.Errorf("%v: decoded error matches %v: %v, want %v", c.err, row.err, !want, want)
			}
		}
	}
}

// An uncertain commit wraps the batch error that caused it, which may
// itself be a sentinel promising "not executed", or quote a member's
// rejection. Uncertain must win, and the quoted rejection must not come
// back typed: the operation DID reach the primary's stream.
func TestWireErrorCodeUncertainFirst(t *testing.T) {
	we := &WrongEpochError{Epoch: 4, Members: []string{"a:1"}}
	for _, err := range []error{
		fmt.Errorf("%w: replication wait: %w", ErrUncertain, we),
		fmt.Errorf("%w: replicating commit: %v", ErrUncertain, we),
		fmt.Errorf("%w: %w", ErrUncertain, ErrConflict),
	} {
		if got := wireCode(err); got != CodeUncertain {
			t.Fatalf("WireErrorCode(%v) = %d, want CodeUncertain=%d", err, got, CodeUncertain)
		}
		back, _ := crossWire(err, 1)
		var typed *WrongEpochError
		if !errors.Is(back, ErrUncertain) || errors.Is(back, ErrConflict) || errors.As(back, &typed) {
			t.Fatalf("%v decoded as %#v", err, back)
		}
	}
}

// TestErrorReplyCarriesClock: every error reply of a kv server carries
// its clock, whatever the class, so a client learns it from a failed
// commit too; a reply of no kv class comes back as it is, clock and all,
// and a transport error teaches no clock.
func TestErrorReplyCarriesClock(t *testing.T) {
	for _, ts := range []Timestamp{0, 1, 1<<64 - 1} {
		for _, err := range []error{
			fmt.Errorf("kvserver: replication quorum lost"),
			fmt.Errorf("%w: replicating commit", ErrUncertain),
			&WrongEpochError{Epoch: 4, Members: []string{"a:1", "b:2", "c:3"}},
		} {
			back, got := crossWire(err, ts)
			if got != ts {
				t.Fatalf("%v at %d: clock %d", err, ts, got)
			}
			var app *rpc.AppError
			if errors.As(back, &app) != (wireCode(err) == 0) {
				t.Fatalf("%v: decoded as %#v", err, back)
			}
		}
	}
	sent := fmt.Errorf("%w: dial", rpc.ErrNotSent)
	if back, ts := DecodeError(sent); back != sent || ts != 0 {
		t.Fatalf("transport error decoded as %v at %d", back, ts)
	}
}
