/**
 * @file
 * Contract annotations for the ActivePointers protocol, enforced
 * statically by tools/aplint (see docs/ANALYSIS.md, "Static matrix").
 *
 * Every macro expands to nothing: the annotations cost zero at compile
 * and run time. They are written in trailing position, after the
 * parameter list and cv/ref qualifiers, before the body or `;`:
 *
 *     void acquirePage(...) AP_LEADER_ONLY AP_YIELDS;
 *     sim::DeviceLock allocLock AP_LOCK_LEVEL("pc.alloc");
 *
 * aplint tokenizes the sources without preprocessing, so it sees the
 * macro names verbatim and checks the contracts they declare:
 *
 *  - AP_LOCKSTEP        The method must be called by the warp as a
 *                       whole. Calling it under a divergent lane guard
 *                       (an `if` on a lane-dependent predicate, or a
 *                       per-lane `for` over kWarpSize) breaks the SIMT
 *                       lockstep assumption of paper Listing 1.
 *  - AP_LEADER_ONLY     Only an elected subgroup leader may call this:
 *                       it touches shared page-cache/TLB structures on
 *                       behalf of an aggregated subgroup. Callers must
 *                       elect a leader (ballot/ffs) first, be leaders
 *                       themselves, or be host-side harness code.
 *  - AP_ELECTS_LEADER   This warp-level entry point is itself the
 *                       election boundary: the warp calls it as a unit
 *                       and it performs one aggregated access (the
 *                       GPUfs gread/gmmap convention), so leader-only
 *                       callees are legal inside it.
 *  - AP_REQUIRES_LINKED The returned raw pointer aliases a page frame
 *                       and is valid only while the translation stays
 *                       linked (the page reference is held). It must
 *                       not escape the calling scope: no returning it,
 *                       no storing it into wider-lived state.
 *  - AP_ACQUIRES("c")   The function may acquire a lock of registered
 *                       class "c". Every textual `.acquire()` of a
 *                       registered lock must be declared this way, and
 *                       nested acquisitions must respect the canonical
 *                       order below.
 *  - AP_NO_YIELD        The function must never reach a fiber yield
 *                       point (page fault service, DMA wait, blocking
 *                       lock): it is called on lock-free paths that
 *                       other warps rely on to make progress.
 *  - AP_YIELDS          The function may suspend the calling warp's
 *                       fiber (long-latency block: page fault, DMA,
 *                       lock handoff, barrier). Calling it inside an
 *                       AP_NO_YIELD function or while a registered
 *                       spinlock is held is a protocol violation.
 *  - AP_LOCK_LEVEL("c") Registers a DeviceLock member, or an accessor
 *                       returning one, as lock class "c" so aplint can
 *                       resolve acquire/release sites to classes.
 *  - AP_MUST_CHECK      The returned status (IoStatus or a struct that
 *                       carries one) reports an I/O or fault outcome
 *                       the caller must inspect. aplint's dataflow
 *                       pass flags results that are dropped at the
 *                       call site, overwritten before being read, or
 *                       that go out of scope uninspected on any path.
 *  - AP_RETURNS_LINKED  The returned raw pointer is derived from a
 *                       linked apointer translation and dies with the
 *                       link. aplint tracks locals initialized from
 *                       such calls and flags stores to fields/globals,
 *                       returns, and any use after an AP_YIELDS call
 *                       (which may fault and remap the frame) or after
 *                       the translation is unlinked.
 *  - AP_ACQUIRES_REF("c") The function takes one reference on the
 *                       resource class "c" (e.g. "pc.page" for page-
 *                       table entry refcounts) per successful call.
 *                       aplint's typestate pass counts each call site
 *                       as +1 and requires the body itself to net at
 *                       most that one acquisition on every return.
 *  - AP_RELEASES_REF("c") The function drops exactly one reference on
 *                       class "c": −1 at each call site, and the body
 *                       must net exactly −1 on every return path.
 *  - AP_TRANSITIONS("A->B", ...) The function publishes the listed
 *                       PteState transitions (and no others). Every
 *                       edge must appear in kPteStateMachine below,
 *                       every state store in the body must be covered
 *                       by a declared edge, and every declared edge
 *                       must be witnessed by the body or a callee.
 *  - AP_BALANCED        Every path through the function — early
 *                       returns and error branches included — must
 *                       net zero acquisitions for every tracked
 *                       resource class (the acquire/release pairing
 *                       discipline of the paper's fault handler).
 */

#ifndef AP_UTIL_ANNOTATIONS_HH
#define AP_UTIL_ANNOTATIONS_HH

#define AP_LOCKSTEP
#define AP_LEADER_ONLY
#define AP_ELECTS_LEADER
#define AP_REQUIRES_LINKED
#define AP_ACQUIRES(lock_class)
#define AP_NO_YIELD
#define AP_YIELDS
#define AP_LOCK_LEVEL(lock_class)
#define AP_MUST_CHECK
#define AP_RETURNS_LINKED
#define AP_ACQUIRES_REF(ref_class)
#define AP_RELEASES_REF(ref_class)
#define AP_TRANSITIONS(...)
#define AP_BALANCED

namespace ap {

/**
 * Canonical lock-acquisition order, outermost first: while holding a
 * lock of one class, only classes strictly later in this list may be
 * acquired. aplint reads the directive below; runtime tests cross-check
 * simcheck's observed lock-order graph against the same declaration
 * (tests/sim/test_lock_contracts.cc), so the static and dynamic views
 * can never drift apart silently.
 */
// aplint: lock-order: tlb.entry < pt.bucket < pc.alloc
inline constexpr const char* kLockOrder[] = {
    "tlb.entry",
    "pt.bucket",
    "pc.alloc",
};

/** One legal PteState transition, named by state identifiers. */
struct PteEdge
{
    const char* from;
    const char* to;
};

/**
 * The page-table-entry state machine, every edge a PTE may legally
 * take (paper §4.2 and DESIGN.md §10). "Absent" is the pseudo-state of
 * a slot with no entry: insertion publishes Loading, removal requires
 * the claimed (refcount = −1) reclamation handshake. aplint's
 * typestate pass reads the directive below and verifies every
 * AP_TRANSITIONS declaration and every state publication in the tree
 * against it; tests/sim/test_pte_contracts.cc asserts the same edge
 * set is exactly what simcheck's runtime PteState auditor accepts, so
 * the static and dynamic views can never drift apart silently.
 */
// aplint: pte-edges: Absent -> Loading, Loading -> Ready, Loading -> Error, Ready -> Claimed, Error -> Claimed, Claimed -> Ready, Claimed -> Absent
inline constexpr PteEdge kPteStateMachine[] = {
    {"Absent", "Loading"},  // page-table insert, fill pending
    {"Loading", "Ready"},   // fill completed
    {"Loading", "Error"},   // fill failed, entry poisoned
    {"Ready", "Claimed"},   // refcount 0 -> -1 eviction claim
    {"Error", "Claimed"},   // poisoned-entry reclaim claim
    {"Claimed", "Ready"},   // claim released (writeback failed)
    {"Claimed", "Absent"},  // entry removed, frame recycled
};

} // namespace ap

#endif // AP_UTIL_ANNOTATIONS_HH
