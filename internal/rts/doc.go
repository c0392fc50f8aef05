// Package rts assembles the complete runtime systems compared in the
// paper's evaluation (§4). One benchmark codebase runs against four
// runtime configurations:
//
//   - ParMem — the paper's contribution: hierarchical heaps mirroring the
//     fork-join task tree, promotion on entangling pointer writes, and
//     concurrent zone collection (labelled mlton-parmem). Collections
//     never park the world: a leaf zone (the task's current heap) collects
//     at an allocation safe point, and a join zone (the merged ancestor,
//     free of live descendants once the join completes) collects at the
//     join — at a top-level join that ancestor is the hierarchy root, so
//     whole-hierarchy collection also needs no rendezvous. Each zone is
//     one heap collected by its owning task under that heap's write lock,
//     so zones of different tasks collect concurrently with nothing to
//     admit them; gc.ZoneRecorder counts the overlap.
//   - STW — Spoonhower-style parallel ML: the same scheduler, per-worker
//     allocation into worker heaps with no write barrier, and sequential
//     stop-the-world semispace collection of every worker heap with a
//     safe-point rendezvous (labelled mlton-spoonhower). This is the only
//     mode that installs the scheduler's parking safe-point hook.
//   - Seq — the sequential baseline: direct execution of both forkjoin
//     arms, plain loads and stores, one heap per session (labelled mlton).
//     Its sessions run on the same worker pool as every other mode's, so
//     Procs is the number of Seq sessions that run at once.
//   - Manticore — a DLG-style design: per-worker local heaps under a shared
//     global heap; data is promoted (copied) to the global heap whenever the
//     runtime communicates it across workers (stolen-task environments and
//     stolen-task results), and local heaps are collected independently —
//     through the same zone recorder, so their concurrency shows up in the
//     same counters.
//
// The four systems differ only in the shape of one heap hierarchy. Every
// runtime has a never-collected root heap, which holds what outlives a
// session; ParMem and Seq hang a heap per session under it, and STW and
// Manticore a heap per worker. Every task allocates through a superheap:
// a stack of heaps that ParMem grows by one level per parallel fork and
// that is one level deep in the other modes. Each heap has one lock, its
// own, and no other lock orders access to a heap's objects.
//
// Tasks carry a shadow stack of root slots (registered *mem.ObjPtr Go
// locals); collections update the slots in place. The rooting contract for
// code running on a Task: any object pointer that must survive a call that
// may allocate (or fork) is registered for the duration of that call.
// Zone collections honor a second, subtler contract with the scheduler: a
// published frame's env slot may be read lock-free by a thief, which is
// safe because pending frames always live at depths strictly above any
// zone this task can collect, and the collector never writes a root slot
// whose pointer did not move.
//
// Execution is organized as SESSIONS (session.go): every unit of work —
// Run included — is a root-level subtree under the process super-root
// heap, concurrent with other sessions, tagged through the zone recorder
// so cross-session collection concurrency is measured, and reclaimed
// wholesale (bulk chunk release, no merge) on completion unless pinned.
// An unpinned session's heaps are therefore not collected below 1 MiB
// (Task.shouldCollect): release frees them anyway.
// Sessions are also the failure domain: budget overruns and panics abort
// one session, drain its frames, and surface as errors from Wait.
package rts
