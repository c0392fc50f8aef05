package load

import (
	"errors"
	"fmt"
	"testing"

	"repro/hh"
	"repro/hh/serve"
)

// TestAbortStormNoLeak drives a 100% conflict rate — every key of the
// store pre-locked, so every transaction stages its managed state, fails
// validation, and unwinds through Task.Abort — for several rounds, and
// asserts the rollback really is wholesale: chunk occupancy returns to
// the pre-storm baseline after every round's drain.
func TestAbortStormNoLeak(t *testing.T) {
	const (
		rounds   = 4
		perRound = 24
		clients  = 6
		size     = 400
	)
	t.Run("parmem", func(t *testing.T) {
		r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(4),
			hh.WithGCPolicy(2048, 1.25), hh.WithInvariantChecks())
		defer r.Close()
		base := hh.ChunksInUse()
		srv := serve.New(r, serve.WithMaxInFlight(clients), serve.WithQueueDepth(2*clients))

		store := newTxnStore(8)
		store.forceConflict.Store(true) // 100% conflict: every validation fails
		var aborts int
		for round := 0; round < rounds; round++ {
			tickets := make([]*serve.Ticket, 0, perRound)
			for i := 0; i < perRound; i++ {
				seed := uint64(round*perRound+i) + 1
				for {
					tk, err := srv.Submit(func(task *hh.Task) uint64 {
						return store.Run(task, seed, size)
					})
					if err == nil {
						tickets = append(tickets, tk)
						break
					}
					if !errors.Is(err, serve.ErrSaturated) {
						t.Fatal(err)
					}
					// Saturated: wait out the oldest in-flight abort.
					if len(tickets) > 0 {
						tickets[0].Wait()
					}
				}
			}
			for _, tk := range tickets {
				_, err := tk.Wait()
				var ab *hh.AbortError
				if !errors.As(err, &ab) {
					t.Fatalf("round %d: storm request returned %v, want *hh.AbortError", round, err)
				}
				aborts++
			}
			srv.Drain()
			if got := hh.ChunksInUse(); got != base {
				t.Fatalf("round %d: %d chunks in use after drain, want baseline %d — abort leaked",
					round, got, base)
			}
		}
		if aborts != rounds*perRound {
			t.Fatalf("%d aborts, want %d", aborts, rounds*perRound)
		}
		if store.Committed() != 0 {
			t.Fatalf("%d commits slipped through a fully locked store", store.Committed())
		}
	})
}

// TestDriveRetriesConflicts checks the closed loop's retry path end to
// end: a txn mix under real contention completes every request, counts
// its aborts and rollback bytes, and passes the oracle.
func TestDriveRetriesConflicts(t *testing.T) {
	p := Params{TxnKeys: 8} // tiny key space: near-certain conflicts
	mix, err := ParseMixWith(p, "txn")
	if err != nil {
		t.Fatal(err)
	}
	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(4), hh.WithGCPolicy(2048, 1.25))
	defer r.Close()
	srv := serve.New(r, serve.WithMaxInFlight(8), serve.WithQueueDepth(16))
	res := Drive(srv, mix, 8, 64, 400, func(idx int64, sc string, err error) {
		t.Errorf("request %d (%s): %v", idx, sc, err)
	})
	if res.OracleErr != nil {
		t.Fatalf("oracle: %v", res.OracleErr)
	}
	if res.Commits != 64 {
		t.Errorf("%d commits, want 64", res.Commits)
	}
	if res.Aborts > 0 && res.RolledBackBytes == 0 {
		t.Errorf("%d aborts rolled back zero bytes in a hierarchical mode", res.Aborts)
	}
	if res.Aborts > 0 && res.RetryNanos == 0 {
		t.Errorf("%d aborts with zero retry latency accounted", res.Aborts)
	}
	t.Logf("aborts %d (%.1f%%), rolled back %d B, retry %s", res.Aborts, 100*res.AbortRate(),
		res.RolledBackBytes, fmt.Sprint(res.RetryNanos))
}
