// Package broken exists to be caught: it violates several yesqlint
// invariants on purpose so the CLI test can assert a non-zero exit.
package broken

import (
	"errors"
	"strings"
	"time"
)

var ErrBoom = errors.New("broken: boom")

// ClassifyByText compares error text — the errsentinel violation.
func ClassifyByText(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrBoom.Error())
}

// WaitAll allocates a timer every iteration — the timerloop violation.
func WaitAll(stop <-chan struct{}, n int) {
	for i := 0; i < n; i++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}
