// Shadow-oracle audit hooks (compiled in with -DHETSCHED_AUDIT=ON).
//
// The fast partitioning paths carry three load-bearing guarantees that no
// ordinary unit test pins down continuously:
//   * the segment-tree engine answers every "leftmost machine with
//     slack >= w" query exactly as the naive linear scan would;
//   * the online controller's incremental per-machine fold (util_sum,
//     hyper, count, slack) stays bit-identical to a from-scratch
//     recomputation over its resident list, and the SlackTree mirrors the
//     slack array bit for bit;
//   * the batch scratch engine (first_fit_partition and the decision-only
//     accept path) agrees with an independent OnlinePartitioner replay in
//     canonical order, and the alpha bisection only ever observes
//     monotone accept/reject patterns.
// An audit build recomputes each of these reference answers after every
// mutation and aborts (via HETSCHED_CHECK) on the first divergence, the
// same way schedcat cross-checks its analysis against an exact oracle.
//
// Everything here compiles to nothing unless HETSCHED_AUDIT is defined:
// call sites are wrapped in HETSCHED_AUDIT_HOOK(...), which expands to an
// empty statement in normal builds, so Release binaries contain no audit
// code and pay no overhead for it.
//
// Reentrancy: the oracles are themselves the audited code paths — e.g. the
// scratch accept path cross-checks against an OnlinePartitioner replay,
// whose admits would audit again.  audit::Scope is a thread-local
// depth guard: hooks only fire at depth zero, so oracle re-runs are never
// themselves audited and recursion terminates.
#pragma once

#ifdef HETSCHED_AUDIT
#define HETSCHED_AUDIT_ENABLED 1
#else
#define HETSCHED_AUDIT_ENABLED 0
#endif

#if HETSCHED_AUDIT_ENABLED

namespace hetsched::audit {

// RAII depth guard; active() is true only for the outermost scope on this
// thread.  Audit checks run inside an active scope, so any engine calls
// they make see a non-zero depth and skip their own hooks.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  bool active() const { return active_; }

 private:
  bool active_;
};

}  // namespace hetsched::audit

// Runs `stmt` (a statement list) only in audit builds and only when not
// already inside an audit check.
#define HETSCHED_AUDIT_HOOK(stmt)                      \
  do {                                                 \
    ::hetsched::audit::Scope hetsched_audit_scope;     \
    if (hetsched_audit_scope.active()) {               \
      stmt;                                            \
    }                                                  \
  } while (false)

#else

#define HETSCHED_AUDIT_HOOK(stmt) \
  do {                            \
  } while (false)

#endif  // HETSCHED_AUDIT_ENABLED
