// Package a exercises the timerloop analyzer: per-iteration timer
// allocations are flagged; the reusable-timer and lazy-init patterns
// are clean.
package a

import "time"

func afterInLoop(ch chan int) {
	for {
		select {
		case <-ch:
			return
		case <-time.After(time.Second): // want `time\.After inside a loop`
		}
	}
}

func newTimerInLoop(ch chan int) {
	for i := 0; i < 10; i++ {
		t := time.NewTimer(time.Second) // want `time\.NewTimer inside a loop`
		select {
		case <-ch:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

func tickInRange(xs []int) {
	for range xs {
		<-time.Tick(time.Millisecond) // want `time\.Tick inside a loop`
	}
}

func tickerInNestedLoop(xs []int) {
	for range xs {
		for {
			t := time.NewTicker(time.Second) // want `time\.NewTicker inside a loop`
			t.Stop()
			return
		}
	}
}

// reusableTimer is the sanctioned shape: one timer allocated before
// the loop, Reset per iteration.
func reusableTimer(ch chan int) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ch:
			return
		case <-t.C:
		}
		t.Reset(time.Second)
	}
}

// lazyInit mirrors Store.Read: the timer variable outlives the loop
// and is allocated at most once, on first need.
func lazyInit(ch chan int, deadline time.Time) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(deadline))
		}
		select {
		case <-ch:
			return
		case <-timer.C:
			return
		}
	}
}

// perIterationRedeclared allocates into a variable scoped to the loop
// body even though the assignment uses =: still per-iteration.
func perIterationRedeclared(ch chan int) {
	for {
		var t *time.Timer
		t = time.NewTimer(time.Second) // want `time\.NewTimer inside a loop`
		select {
		case <-ch:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// funcLitResetsScope: an allocation inside a function literal is that
// function's business, not the enclosing loop's.
func funcLitResetsScope(fns []func()) {
	for range fns {
		f := func() {
			t := time.NewTimer(time.Second)
			t.Stop()
		}
		f()
	}
}

// afterOutsideLoop is clean: no enclosing loop.
func afterOutsideLoop(ch chan int) {
	select {
	case <-ch:
	case <-time.After(time.Second):
	}
}
