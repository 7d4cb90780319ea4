// Package a exercises the lockorder analyzer against the kvserver
// mutex ranking: repMu → txMu → epochMu.
package a

import "sync"

type Store struct {
	repMu   sync.Mutex
	txMu    sync.Mutex
	epochMu sync.Mutex
	epoch   uint64
}

// nestedInOrder is the sanctioned shape.
func (s *Store) nestedInOrder() {
	s.repMu.Lock()
	s.txMu.Lock()
	s.epochMu.Lock()
	s.epoch++
	s.epochMu.Unlock()
	s.txMu.Unlock()
	s.repMu.Unlock()
}

// inverted acquires against the order.
func (s *Store) inverted() {
	s.epochMu.Lock()
	s.repMu.Lock() // want `acquiring repMu while holding epochMu`
	s.repMu.Unlock()
	s.epochMu.Unlock()
}

// reentry self-deadlocks.
func (s *Store) reentry() {
	s.txMu.Lock()
	s.txMu.Lock() // want `acquiring txMu while holding txMu`
	s.txMu.Unlock()
	s.txMu.Unlock()
}

// sequential is clean: the first mutex is released before the lower
// rank is taken.
func (s *Store) sequential() {
	s.txMu.Lock()
	s.epoch++
	s.txMu.Unlock()
	s.repMu.Lock()
	s.repMu.Unlock()
}

// earlyReturn models the unlock-in-branch idiom: the fall-through
// path still holds repMu, so the nested txMu there is in order and
// clean, while epochMu → txMu after the branch is flagged.
func (s *Store) earlyReturn(bad bool) {
	s.repMu.Lock()
	if bad {
		s.repMu.Unlock()
		return
	}
	s.txMu.Lock()
	s.txMu.Unlock()
	s.repMu.Unlock()

	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.txMu.Lock() // want `acquiring txMu while holding epochMu`
	s.txMu.Unlock()
}

// lockRep is a helper whose acquisition callers inherit.
func (s *Store) lockRep() {
	s.repMu.Lock()
	s.repMu.Unlock()
}

// transitiveInversion calls a repMu-acquiring helper under txMu.
func (s *Store) transitiveInversion() {
	s.txMu.Lock()
	s.lockRep() // want `lockRep may acquire repMu, but the caller holds txMu`
	s.txMu.Unlock()
}

// transitiveOK calls an epochMu-acquiring helper under repMu: later
// rank, in order, clean.
func (s *Store) readEpoch() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epoch
}

func (s *Store) transitiveOK() uint64 {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.readEpoch()
}

// epochLeaf: epochMu is the last rank; taking anything under it is
// flagged.
func (s *Store) epochLeaf() {
	s.epochMu.Lock()
	s.txMu.Lock() // want `acquiring txMu while holding epochMu`
	s.txMu.Unlock()
	s.epochMu.Unlock()
}

// goroutineNotOnPath: a goroutine spawned under epochMu acquires
// repMu on its own stack — not this path's order problem.
func (s *Store) goroutineNotOnPath() {
	s.epochMu.Lock()
	go func() {
		s.repMu.Lock()
		s.repMu.Unlock()
	}()
	s.epochMu.Unlock()
}

// clauseMerge: a mutex still held by any clause that falls out of a
// switch counts as held after it; a clause that returns does not.
func (s *Store) clauseMerge(k int) {
	switch k {
	case 0:
		s.epochMu.Lock()
	case 1:
		s.repMu.Lock()
		return
	}
	s.txMu.Lock() // want `acquiring txMu while holding epochMu`
	s.txMu.Unlock()
}

// loopMerge: a mutex taken in a loop body may be held after the loop.
func (s *Store) loopMerge(n int) {
	for i := 0; i < n; i++ {
		s.epochMu.Lock()
	}
	s.repMu.Lock() // want `acquiring repMu while holding epochMu`
	s.repMu.Unlock()
}
