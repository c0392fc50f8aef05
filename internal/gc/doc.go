// Package gc implements the promotion-aware semispace collection of the
// paper's Appendix A and the concurrent zone collection of §3.4.
//
// A collection targets a zone: a heap and (optionally) its live
// descendants, each of which gets a to-space twin. Objects reachable from
// the registered roots are copied Cheney-style into the twins. The
// promotion-awareness is in how forwarding chains are treated:
//
//  1. a chain leading into a to-space is a copy made by this collection —
//     reuse it;
//  2. a chain leading into a from-space strictly above the zone is a copy
//     made by an earlier promotion — reuse it, thereby eliminating the
//     duplicate left behind in the zone;
//  3. a chain ending at an unforwarded object inside the zone means the
//     object is live and still local — copy it into its heap's twin.
//
// The Collector keeps no package-level state, so collections of disjoint
// zones are free to run concurrently — with each other and with mutator
// work outside their zones. Nothing schedules them: a runtime's zone is
// always one heap that only its owning task collects, so the ZoneRecorder
// just runs each collection and records how many actually overlapped
// (ZoneStats: counts by kind, peak concurrency, overlap wall time).
//
// Lock ordering: a zone collection holds exactly one heap lock, its heap's
// write lock, and waits for no other heap lock while holding it. A holder
// that never waits can never be part of a cycle of lock waits, so
// collections compose with promotion climbs and findMaster readers without
// any order to agree on. In a
// disentangled execution no other task can even reference into a zone
// (the zone has no live descendants), so the lock is uncontended; it
// exists to serialize, rather than corrupt, should entanglement ever leak
// a pointer inside.
//
// The package also provides the collection trigger policy and the
// stop-the-world whole-heap collection used by the sequential and
// Spoonhower-style baseline runtimes, which is the same copier with a zone
// covering every allocation region.
package gc
