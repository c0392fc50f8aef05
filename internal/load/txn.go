package load

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/hh"
	"repro/internal/trace"
)

// The txn scenario: an MVCC-style transactional KV under optimistic
// concurrency control, built to exercise the hierarchy's free-rollback
// claim. Each transaction is one session subtree. It STAGES its write
// intents (plus scratch proportional to the request size) in managed
// memory inside that subtree, reads a snapshot of its read set, then
// try-locks its write keys and validates the snapshot. A conflict calls
// Task.Abort: the session unwinds through the panic-isolation path and
// everything the transaction staged is reclaimed wholesale — rollback is
// a bulk chunk release, with no per-object undo log. The drive loop
// observes the *hh.AbortError and retries the same request.
//
// The store itself — versions, values, the committed schedule — lives in
// plain Go: cross-session state cannot be rooted in the managed hierarchy
// in the flat modes (and an unpinned session's objects die with it), so
// the shared side is host-side by design, exactly like graph.Raw. Only
// the per-transaction working state is managed, which is precisely the
// state a rollback must discard.

const (
	txnReads  = 4 // keys read (and validated) per transaction
	txnWrites = 4 // keys written per transaction
)

// ErrTxnConflict is the reason txn requests pass to Task.Abort when
// optimistic validation fails; the drive loop matches the resulting
// *hh.AbortError and retries.
var ErrTxnConflict = errors.New("load: txn optimistic validation failed")

// txnCommitRec is one entry of the committed schedule: the log is
// appended while the transaction holds its write locks, so log order is a
// valid serialization order and replaying it single-threaded must
// reproduce the store's final state (Verify).
type txnCommitRec struct {
	seed uint64
	keys [txnWrites]int32
	vals [txnWrites]uint64
}

// txnStore is one drive loop's shared transactional KV.
type txnStore struct {
	nkeys    int
	versions []atomic.Uint64 // per-key seqlock: even = stable, odd = commit in progress
	values   []atomic.Uint64

	// forceConflict makes every validation fail — the abort-storm tests'
	// 100% conflict knob. The transaction still stages, reads, and locks
	// normally; only the commit decision is forced.
	forceConflict atomic.Bool

	mu  sync.Mutex
	log []txnCommitRec
}

func newTxnStore(nkeys int) *txnStore {
	if nkeys < txnWrites {
		nkeys = txnWrites
	}
	return &txnStore{
		nkeys:    nkeys,
		versions: make([]atomic.Uint64, nkeys),
		values:   make([]atomic.Uint64, nkeys),
	}
}

// Committed reports how many transactions have committed.
func (s *txnStore) Committed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// read snapshots one key through its seqlock: retry while a commit holds
// the key (odd version) or the version moved under the read.
func (s *txnStore) read(k int32) (val, ver uint64) {
	for {
		v1 := s.versions[k].Load()
		if v1&1 != 0 {
			runtime.Gosched()
			continue
		}
		val = s.values[k].Load()
		if s.versions[k].Load() == v1 {
			return val, v1
		}
	}
}

// lockOrder returns the write set's distinct keys in ascending order —
// the global try-lock order, so two transactions can deadlock only by
// both failing fast, never by waiting.
func lockOrder(wkeys [txnWrites]int32) []int32 {
	order := append([]int32(nil), wkeys[:]...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := order[:0]
	for _, k := range order {
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
	return out
}

func (s *txnStore) unlock(locked []int32) {
	for _, k := range locked {
		s.versions[k].Add(1) // odd -> next even: version advances
	}
}

// tryCommit runs OCC validation and commit: try-lock the write keys in
// sorted order (CAS even -> odd; a contended key fails immediately),
// validate every read key's version is unchanged since the snapshot, then
// publish the write values, append the schedule entry under the locks,
// and unlock. Returns false — with no store mutation visible — on any
// conflict.
func (s *txnStore) tryCommit(seed uint64, wkeys [txnWrites]int32, wvals [txnWrites]uint64,
	rkeys [txnReads]int32, rvers [txnReads]uint64) bool {

	order := lockOrder(wkeys)
	locked := make([]int32, 0, len(order))
	for _, k := range order {
		ver := s.versions[k].Load()
		if ver&1 != 0 || !s.versions[k].CompareAndSwap(ver, ver+1) {
			s.unlock(locked)
			return false
		}
		locked = append(locked, k)
	}
	if s.forceConflict.Load() {
		s.unlock(locked)
		return false
	}
	for i, k := range rkeys {
		want := rvers[i]
		for _, lk := range locked {
			if lk == k { // we locked our own read key: its even version moved to odd
				want++
				break
			}
		}
		if s.versions[k].Load() != want {
			s.unlock(locked)
			return false
		}
	}
	// Publish in index order (duplicate write keys: last intent wins, and
	// Verify's model replay applies the same order).
	for i := 0; i < txnWrites; i++ {
		s.values[wkeys[i]].Store(wvals[i])
	}
	rec := txnCommitRec{seed: seed, keys: wkeys, vals: wvals}
	s.mu.Lock()
	s.log = append(s.log, rec)
	s.mu.Unlock()
	s.unlock(locked)
	return true
}

// Run executes one transaction. The checksum folds only the write intents
// and staged scratch — pure functions of (seed, size) — never the read
// snapshot, so committed checksums are identical in every mode regardless
// of how the schedule interleaved.
func (s *txnStore) Run(t *hh.Task, seed uint64, size int) uint64 {
	var wkeys [txnWrites]int32
	var wvals [txnWrites]uint64
	for i := range wkeys {
		wkeys[i] = int32(hh.Hash64(seed^uint64(i+1)<<40) % uint64(s.nkeys))
		wvals[i] = hh.Hash64(seed + uint64(i)*0x9E3779B9)
	}
	var rkeys [txnReads]int32
	for i := range rkeys {
		rkeys[i] = int32(hh.Hash64(seed^uint64(i+1)<<52^0xC0FFEE) % uint64(s.nkeys))
	}
	scratch := size / txnWrites
	if scratch < 4 {
		scratch = 4
	}

	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		// Read phase: snapshot the read set (host-side seqlock reads) into
		// a managed cell array — the transaction's private view, discarded
		// with the rest of the subtree on abort. Validation at commit
		// checks these versions are still current, so everything between
		// here and tryCommit is the optimistic window.
		snap := sc.Ref(t.AllocMut(0, txnReads*2, hh.TagArrI64))
		var rvers [txnReads]uint64
		for i, k := range rkeys {
			val, ver := s.read(k)
			t.WriteWord(snap.Get(), i*2, val)
			t.WriteWord(snap.Get(), i*2+1, ver)
			rvers[i] = ver
		}

		// Stage the write intents in managed memory: a session-shared
		// directory of records, each carrying its key, value, and scratch
		// words — the bytes an abort rolls back wholesale. The publish into
		// the directory is a promoting write. This
		// is the transaction's "work", and it all happens inside the
		// optimistic window.
		dir := sc.Ref(t.AllocMut(txnWrites, 0, hh.TagArrPtr))
		hh.ParDo(t, hh.Bind(dir), 0, txnWrites, 1, func(t *hh.Task, e *hh.Env, lo, hi int) {
			for i := lo; i < hi; i++ {
				t.Scoped(func(ws *hh.Scope) {
					rec := t.Alloc(0, scratch+2, hh.TagTuple)
					t.InitWord(rec, 0, uint64(wkeys[i]))
					t.InitWord(rec, 1, wvals[i])
					for j := 2; j < scratch+2; j++ {
						t.InitWord(rec, j, hh.Hash64(seed^uint64(i)<<16^uint64(j)))
					}
					t.WritePtr(e.Ptr(0), i, rec)
				})
			}
		})

		// Commit window, under a flight-recorder span: Perfetto shows each
		// decision with its outcome and how many staged words an abort
		// threw away.
		staged := uint64(txnWrites * (scratch + 2))
		span := uint64(0)
		if trace.Enabled() {
			span = trace.Begin(-1, trace.EvTxn, 0, seed)
		}
		if !s.tryCommit(seed, wkeys, wvals, rkeys, rvers) {
			trace.End(-1, trace.EvTxn, span, 1, staged)
			t.Abort(uint64(wkeys[0]), ErrTxnConflict)
		}
		trace.End(-1, trace.EvTxn, span, 0, staged)

		sum = seed
		for i := 0; i < txnWrites; i++ {
			rec := t.ReadMutPtr(dir.Get(), i)
			sum = sum*31 + t.ReadImmWord(rec, 0) + t.ReadImmWord(rec, 1)
			sum = sum*31 + t.ReadImmWord(rec, 2) + t.ReadImmWord(rec, scratch+1)
		}
	})
	return sum
}

// Verify is the serializability oracle: replay the committed schedule —
// whose order was fixed under the write locks — through a single-threaded
// model and compare the model's final state with the store's. Any
// torn/lost write, or a commit that slipped past validation, diverges.
func (s *txnStore) Verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	model := make([]uint64, s.nkeys)
	for _, c := range s.log {
		for i := range c.keys {
			model[c.keys[i]] = c.vals[i]
		}
	}
	for k := 0; k < s.nkeys; k++ {
		if ver := s.versions[k].Load(); ver&1 != 0 {
			return fmt.Errorf("txn oracle: key %d still locked (version %d) after drain", k, ver)
		}
		if got, want := s.values[k].Load(), model[k]; got != want {
			return fmt.Errorf("txn oracle: key %d = %#x, single-threaded replay of %d commits says %#x",
				k, got, len(s.log), want)
		}
	}
	return nil
}
