package heap

import (
	"sync"
	"sync/atomic"
)

// Mode selects how a heap lock is acquired, following the paper's
// lock(heap, mode) primitive.
type Mode int

// Lock acquisition modes.
const (
	READ Mode = iota
	WRITE
)

// The lock word, low bits first: reader count · writer bit · waiting-writer
// count · sleeper count. A waiting writer is one that found the lock held
// and announced itself (spinning or parked); while any are announced,
// arriving readers queue behind them. A sleeper is a goroutine of either
// mode parked in the slow path; releases wake sleepers only when the word
// says there are some.
const (
	readerUnit  = uint64(1)
	readerMask  = uint64(1)<<24 - 1
	writerBit   = uint64(1) << 24
	waiterUnit  = uint64(1) << 25
	waiterMask  = (uint64(1)<<19 - 1) << 25
	sleeperUnit = uint64(1) << 44
	sleeperMask = ^(sleeperUnit - 1)
)

// spinRounds bounds how many times a blocked acquirer re-reads the word
// before it parks. A promotion climb holds a heap for a few hundred
// nanoseconds, which the spin covers; a zone collection holds it for far
// longer, and its waiters should sleep rather than burn the processor the
// collector may need.
const spinRounds = 40

// RWLock is a readers-writer lock with writer preference, held in one
// atomic word: an uncontended acquisition is one compare-and-swap and an
// uncontended release one atomic add. Promotions (writers) must not starve
// behind streams of findMaster calls (readers), so arriving readers queue
// behind waiting writers.
//
// Unlike sync.RWMutex it exposes a mode-less Unlock matching the paper's
// unlock(heap), and it counts write acquisitions and how many of them had
// to wait, so tests can check which paths lock. The zero value is an
// unlocked lock.
type RWLock struct {
	word atomic.Uint64
	park atomic.Pointer[parker] // installed by the first goroutine to sleep

	// Written only while the lock is held exclusively.
	wAcquires  int64
	wContended int64
}

// parker is where blocked acquirers sleep. It is touched only when the
// lock word records a sleeper, so an uncontended lock never allocates one.
type parker struct {
	mu   sync.Mutex
	cond sync.Cond
}

// LockStats is a snapshot of a lock's write-acquisition counters.
type LockStats struct {
	WriteAcquires  int64
	WriteContended int64 // write acquisitions that found the lock held
}

// Lock acquires the lock in the given mode.
func (l *RWLock) Lock(m Mode) {
	if m == WRITE {
		l.WLock()
	} else {
		l.RLock()
	}
}

// RLock acquires the lock in shared (read) mode.
func (l *RWLock) RLock() {
	for spin := 0; ; {
		old := l.word.Load()
		if old&(writerBit|waiterMask) == 0 {
			if l.word.CompareAndSwap(old, old+readerUnit) {
				return
			}
			continue
		}
		if spin < spinRounds {
			spin++
			continue
		}
		l.sleep(old)
	}
}

// WLock acquires the lock in exclusive (write) mode.
func (l *RWLock) WLock() {
	if !l.word.CompareAndSwap(0, writerBit) && l.wlockSlow() {
		l.wContended++
	}
	l.wAcquires++
}

// wlockSlow acquires the write lock when the word was not simply zero and
// reports whether it found the lock held. The first time it does, it
// announces itself as a waiting writer, which closes the lock to new
// readers; the acquiring compare-and-swap withdraws the announcement.
func (l *RWLock) wlockSlow() (contended bool) {
	announced := uint64(0)
	for spin := 0; ; {
		old := l.word.Load()
		switch {
		case old&(readerMask|writerBit) == 0:
			if l.word.CompareAndSwap(old, old+writerBit-announced) {
				return announced != 0
			}
		case announced == 0:
			l.word.Add(waiterUnit)
			announced = waiterUnit
		case spin < spinRounds:
			spin++
		default:
			l.sleep(old)
		}
	}
}

// sleep parks the caller until a release wakes it, unless the word has
// moved on from old — the value that made the caller wait — in which case
// it returns at once for the caller to look again. Registering as a sleeper
// with a compare-and-swap against old is what rules out a lost wake-up: a
// release either precedes the registration, and fails it, or follows it,
// sees the sleeper count, and broadcasts — which it can do only once this
// goroutine is inside Wait, because both sides hold the parker's mutex.
func (l *RWLock) sleep(old uint64) {
	p := l.park.Load()
	if p == nil {
		p = &parker{}
		p.cond.L = &p.mu
		if !l.park.CompareAndSwap(nil, p) {
			p = l.park.Load()
		}
	}
	p.mu.Lock()
	if l.word.CompareAndSwap(old, old+sleeperUnit) {
		p.cond.Wait()
		l.sub(sleeperUnit)
	}
	p.mu.Unlock()
}

// sub subtracts x from the lock word and returns the new value.
func (l *RWLock) sub(x uint64) uint64 { return l.word.Add(^(x - 1)) }

// Unlock releases the lock, whichever mode it is held in. It panics if the
// lock is not held.
func (l *RWLock) Unlock() {
	old := l.word.Load()
	var now uint64
	switch {
	case old&writerBit != 0:
		now = l.sub(writerBit)
	case old&readerMask != 0:
		now = l.sub(readerUnit)
		if now&readerMask != 0 {
			return // other readers remain: nobody can get in yet
		}
	default:
		panic("heap: Unlock of unlocked RWLock")
	}
	if now&sleeperMask != 0 {
		p := l.park.Load()
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Stats returns a snapshot of the write-acquisition counters. The caller
// must hold the lock or otherwise be ordered after the writers it counts.
func (l *RWLock) Stats() LockStats {
	return LockStats{WriteAcquires: l.wAcquires, WriteContended: l.wContended}
}
