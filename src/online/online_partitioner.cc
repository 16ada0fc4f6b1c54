#include "online/online_partitioner.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/audit.h"
#include "util/check.h"

#if HETSCHED_AUDIT_ENABLED
#include "partition/first_fit.h"
#endif

namespace hetsched {

namespace {

// Pre-registered handles (lint rule [metric-handle]: hot paths must not
// look metrics up by name).  The namespace-scope constructor runs during
// static initialization, so no HETSCHED_NOALLOC function ever triggers
// registration.  Batch first-fit tests run on their own scratch engine and
// never count here; audit builds, however, replay them through a
// controller as an oracle, so audit-mode counter values exceed the
// decision counts.
struct OnlineMetrics {
  obs::Counter admits_warm = obs::registry().counter(
      "hetsched_admit_warm_total", "admits that reused a free arena slot");
  obs::Counter admits_cold = obs::registry().counter(
      "hetsched_admit_cold_total", "admits that grew the slot arena");
  obs::Counter admits_rejected = obs::registry().counter(
      "hetsched_admit_reject_total", "admission attempts no machine fit");
  obs::Counter departs = obs::registry().counter(
      "hetsched_depart_total", "successful departures");
  obs::Counter departs_stale = obs::registry().counter(
      "hetsched_depart_stale_total", "departures with a dead or reused id");
  obs::Counter rebalances_applied = obs::registry().counter(
      "hetsched_rebalance_applied_total", "rebalances that committed");
  obs::Counter rebalances_failed = obs::registry().counter(
      "hetsched_rebalance_failed_total",
      "rebalances whose trial re-pack did not fit");
  obs::Counter migrations = obs::registry().counter(
      "hetsched_rebalance_migrations_total",
      "tasks moved to a different machine by rebalances");
  obs::LatencyHistogram admit_ns = obs::registry().histogram(
      "hetsched_admit_latency_ns",
      "admit() latency (sampled 1/kLatencySamplePeriod)");
  obs::LatencyHistogram depart_ns = obs::registry().histogram(
      "hetsched_depart_latency_ns",
      "depart() latency (sampled 1/kLatencySamplePeriod)");
  obs::LatencyHistogram rebalance_ns = obs::registry().histogram(
      "hetsched_rebalance_latency_ns", "rebalance() latency (every call)");
};
const OnlineMetrics g_metrics;

}  // namespace

OnlinePartitioner::OnlinePartitioner(const Platform& platform,
                                     AdmissionKind kind, double alpha,
                                     PartitionEngine engine,
                                     const admit::AdmitConfig& admit_cfg)
    : platform_(platform), kind_(kind), alpha_(alpha), admit_cfg_(admit_cfg) {
  HETSCHED_CHECK(platform_.size() >= 1);
  HETSCHED_CHECK(alpha_ >= 1.0);
  tiered_ = admit_cfg_.tiered();
  // Tiered mode: the tier-0 fold kind replaces the legacy admission kind —
  // the whole slack machinery (fold arrays, segment tree, rebalance
  // scratch) then runs over densities unchanged.
  if (tiered_) kind_ = admit::tier0_fold_kind(admit_cfg_.test);
  slack_form_ = admission_has_slack_form(kind_);
  use_tree_ =
      resolve_engine(engine, kind_) == PartitionEngine::kSegmentTree;
  const std::size_t m = platform_.size();
  capacity_.resize(m);
  st_.residents.resize(m);
  if (slack_form_) {
    st_.util_sum.assign(m, 0.0);
    st_.hyper.assign(m, 1.0);
    st_.count.assign(m, 0);
    st_.slack.resize(m);
  } else {
    st_.loads.reserve(m);
  }
  if (tiered_) {
    demand_.resize(m);
    speed_exact_.reserve(m);
    // The same alpha quantization the constrained batch partitioner uses.
    const Rational ar = rational_from_double(alpha_, 1'000'000);
    for (std::size_t j = 0; j < m; ++j) {
      speed_exact_.push_back(platform_.speed_exact(j) * ar);
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    capacity_[j] = platform_.speed(j) * alpha_;
    if (slack_form_) {
      st_.slack[j] = admission_slack(kind_, capacity_[j], 0.0, 0, 1.0);
    } else {
      st_.loads.emplace_back(kind_, platform_.speed_exact(j), alpha_);
    }
  }
  if (use_tree_) tree_.build(st_.slack);
}

double OnlinePartitioner::slot_weight(const Task& t) const {
  return tiered_ ? admit::inflate(admit_cfg_, t).density() : t.utilization();
}

void OnlinePartitioner::rebuild_demand() {
  if (!tiered_) return;
  const std::size_t m = platform_.size();
  demand_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    demand_[j].clear();
    demand_[j].reserve(st_.residents[j].size() + 1);
    for (const std::uint32_t idx : st_.residents[j]) {
      demand_[j].push(admit::inflate(admit_cfg_, st_.slots[idx].task));
    }
  }
}

// HETSCHED_NOALLOC (slack-form kinds; the RTA fallback allocates)
std::size_t OnlinePartitioner::find_machine(const Task& t, double w) const {
  const std::size_t m = platform_.size();
  if (!slack_form_) {
    for (std::size_t j = 0; j < m; ++j) {
      if (st_.loads[j].can_admit(t)) return j;
    }
    return kNoMachine;
  }
  if (use_tree_) {
    const std::size_t j = tree_.find_first_at_least(w);
    return j == SlackTree::npos ? kNoMachine : j;
  }
  // Naive engine: the reference linear scan, identical comparisons.
  for (std::size_t j = 0; j < m; ++j) {
    if (w <= st_.slack[j]) return j;
  }
  return kNoMachine;
}

// HETSCHED_OWNER_LOOP (tiered warm admit: pure compute over the resident
// demand mirrors, no syscalls)
// HETSCHED_NOALLOC (warm: escalation pushes into reserved mirror capacity)
std::size_t OnlinePartitioner::find_machine_tiered(const ConstrainedTask& ct,
                                                   double w,
                                                   std::uint8_t& tier) const {
  // j0 = leftmost tier-0 (density) accept.  Density accept implies every
  // escalation tier accepts (dbf_i(t) <= (c_i/d_i) t for t >= d_i), so j0
  // is an upper bound on the first-fit answer and machines right of it
  // never need to be consulted.
  const std::size_t m = platform_.size();
  std::size_t j0;
  if (use_tree_) {
    j0 = tree_.find_first_at_least(w);
    if (j0 == SlackTree::npos) j0 = kNoMachine;
  } else {
    j0 = kNoMachine;
    for (std::size_t j = 0; j < m; ++j) {
      if (w <= st_.slack[j]) {
        j0 = j;
        break;
      }
    }
  }
  // Machines left of j0 rejected the density bound; offer them to the
  // escalation tiers in index order (first fit over the *selected* test).
  const std::size_t limit = j0 == kNoMachine ? m : j0;
  std::uint8_t deepest = admit::kTierBound;
  for (std::size_t j = 0; j < limit; ++j) {
    const double margin =
        (st_.util_sum[j] + w - capacity_[j]) / capacity_[j];
    const admit::TierVerdict v =
        admit::escalate(admit_cfg_, demand_[j], ct, speed_exact_[j], margin);
    if (v.accept) {
      tier = v.tier;
      return j;
    }
    deepest = std::max(deepest, v.tier);
  }
  if (j0 != kNoMachine) {
    tier = admit::kTierBound;
    return j0;
  }
  tier = deepest;
  return kNoMachine;
}

// HETSCHED_NOALLOC (slack-form kinds; the RTA fallback allocates)
void OnlinePartitioner::apply_admit(std::size_t j, double w, const Task& t) {
  if (slack_form_) {
    admission_fold_step(kind_, w, capacity_[j], st_.util_sum[j], st_.hyper[j],
                        st_.count[j], st_.slack[j]);
    if (use_tree_) tree_.update(j, st_.slack[j]);
  } else {
    st_.loads[j].admit(t);
  }
}

// HETSCHED_OWNER_LOOP (warm admit is called per frame from the server's
// owner loops; pure compute, no syscalls)
// HETSCHED_NOALLOC (slack-form kinds, warm arena; growth is amortized)
AdmitDecision OnlinePartitioner::admit(const Task& t) {
  return admit_impl(t, /*fold_checksum=*/true);
}

// HETSCHED_NOALLOC (slack-form kinds, warm arena; growth is amortized)
AdmitDecision OnlinePartitioner::admit_migrated(const Task& t) {
  return admit_impl(t, /*fold_checksum=*/false);
}

// HETSCHED_NOALLOC (slack-form kinds, warm arena; growth is amortized)
AdmitDecision OnlinePartitioner::admit_impl(const Task& t,
                                            bool fold_checksum) {
  HETSCHED_TIMED_SAMPLED(g_metrics.admit_ns);
  HETSCHED_CHECK(t.valid());
  AdmitDecision d;
  d.utilization = t.utilization();
  // Legacy mode predates the deadline field and must keep its byte streams
  // bit-identical; deadlines are the tiered subsystem's to decide.
  HETSCHED_CHECK(tiered_ || t.implicit_deadline());
  ConstrainedTask ct;  // tiered only: overhead-inflated constrained view
  double w = d.utilization;
  if (tiered_) {
    ct = admit::inflate(admit_cfg_, t);
    w = ct.density();
  }
  const std::size_t j =
      tiered_ ? find_machine_tiered(ct, w, d.tier) : find_machine(t, w);
  // The checksum folds the deadline only when one rides the request, so
  // every pre-deadline decision stream replays byte-identically.
  const auto fold_admit = [&](bool admitted, std::size_t machine) {
    ++st_.decision_seq;
    if (!fold_checksum) return;
    std::uint64_t h = st_.decision_checksum;
    h = fnv1a_u64(h, 1);  // op tag: admit
    h = fnv1a_u64(h, static_cast<std::uint64_t>(t.exec));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(t.period));
    if (t.deadline != 0) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(t.deadline));
    }
    h = fnv1a_u64(h, admitted ? 1 : 0);
    h = fnv1a_u64(h, admitted ? static_cast<std::uint64_t>(machine)
                              : ~std::uint64_t{0});
    st_.decision_checksum = h;
  };
  if (j == kNoMachine) {
    fold_admit(false, kNoMachine);
    HETSCHED_COUNT(g_metrics.admits_rejected);
    HETSCHED_TRACE_EVENT(obs::TraceKind::kAdmit, false, 0, 0);
    HETSCHED_AUDIT_HOOK(audit_verify_decision(t, w, kNoMachine, d.tier));
    return d;
  }

  apply_admit(j, w, t);
  if (tiered_) demand_[j].push(ct);
  std::uint32_t slot;
  if (!st_.free_slots.empty()) {
    slot = st_.free_slots.back();
    st_.free_slots.pop_back();
    HETSCHED_COUNT(g_metrics.admits_warm);
  } else {
    slot = static_cast<std::uint32_t>(st_.slots.size());
    st_.slots.emplace_back();  // hetsched-lint: allow(noalloc) arena growth
    HETSCHED_COUNT(g_metrics.admits_cold);
  }
  Slot& s = st_.slots[slot];
  s.task = t;
  s.util = w;
  s.seq = st_.next_seq++;
  s.machine = static_cast<std::uint32_t>(j);
  s.live = true;
  // hetsched-lint: allow(noalloc) arena growth, amortized after warm-up
  st_.residents[j].push_back(slot);
  ++st_.resident;

  d.admitted = true;
  d.id = make_id(slot, s.gen);
  d.machine = j;
  fold_admit(true, j);
  HETSCHED_TRACE_EVENT(obs::TraceKind::kAdmit, true, j, slot);
  HETSCHED_AUDIT_HOOK(audit_verify_decision(t, w, j, d.tier);
                      audit_verify_machine(j));
  return d;
}

// HETSCHED_NOALLOC (slack-form kinds; the RTA fallback allocates)
void OnlinePartitioner::recompute_machine(std::size_t j) {
  if (slack_form_) {
    double util_sum = 0.0;
    double hyper = 1.0;
    for (const std::uint32_t idx : st_.residents[j]) {
      const double w = st_.slots[idx].util;
      util_sum += w;
      hyper *= w / capacity_[j] + 1.0;
    }
    st_.util_sum[j] = util_sum;
    st_.hyper[j] = hyper;
    st_.count[j] = st_.residents[j].size();
    st_.slack[j] =
        admission_slack(kind_, capacity_[j], util_sum, st_.count[j], hyper);
    if (use_tree_) tree_.update(j, st_.slack[j]);
  } else {
    st_.loads[j] = MachineLoad(kind_, platform_.speed_exact(j), alpha_);
    for (const std::uint32_t idx : st_.residents[j]) {
      st_.loads[j].admit(st_.slots[idx].task);
    }
  }
}

// HETSCHED_OWNER_LOOP (warm depart, same per-frame contract as admit)
// HETSCHED_NOALLOC (slack-form kinds, warm arena; growth is amortized)
bool OnlinePartitioner::depart(OnlineTaskId id) {
  return depart_impl(id, /*fold_checksum=*/true);
}

// HETSCHED_NOALLOC (slack-form kinds, warm arena; growth is amortized)
bool OnlinePartitioner::depart_migrated(OnlineTaskId id) {
  return depart_impl(id, /*fold_checksum=*/false);
}

// HETSCHED_NOALLOC (slack-form kinds, warm arena; growth is amortized)
bool OnlinePartitioner::depart_impl(OnlineTaskId id, bool fold_checksum) {
  HETSCHED_TIMED_SAMPLED(g_metrics.depart_ns);
  const auto fold_depart = [&](bool ok) {
    ++st_.decision_seq;
    if (fold_checksum) {
      std::uint64_t h = st_.decision_checksum;
      h = fnv1a_u64(h, 2);  // op tag: depart
      h = fnv1a_u64(h, id);
      h = fnv1a_u64(h, ok ? 1 : 0);
      st_.decision_checksum = h;
    }
  };
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= st_.slots.size()) {
    fold_depart(false);
    HETSCHED_COUNT(g_metrics.departs_stale);
    return false;
  }
  Slot& s = st_.slots[slot];
  if (!s.live || s.gen != gen) {
    fold_depart(false);
    HETSCHED_COUNT(g_metrics.departs_stale);
    return false;
  }

  const std::size_t j = s.machine;
  auto& res = st_.residents[j];
  const auto it = std::find(res.begin(), res.end(), slot);
  if (tiered_) {
    demand_[j].remove_at(static_cast<std::size_t>(it - res.begin()));
  }
  res.erase(it);
  s.live = false;
  ++s.gen;  // invalidate the departed id forever
  // hetsched-lint: allow(noalloc) arena free list, amortized after warm-up
  st_.free_slots.push_back(slot);
  --st_.resident;
  recompute_machine(j);
  fold_depart(true);
  HETSCHED_COUNT(g_metrics.departs);
  HETSCHED_TRACE_EVENT(obs::TraceKind::kDepart, true, j, slot);
  HETSCHED_AUDIT_HOOK(audit_verify_full());
  return true;
}

MigrationPlan OnlinePartitioner::migration_plan() {
  MigrationPlan plan;
  plan.resident = st_.resident;
  if (st_.resident == 0) {
    plan.feasible = true;
    return plan;
  }

  // Canonical order: utilization descending, ties by admission sequence —
  // the exact order first_fit_partition consumes tasks in when the
  // residents are laid out as a TaskSet in admission order.
  rb_order_.clear();
  for (std::uint32_t i = 0; i < st_.slots.size(); ++i) {
    if (st_.slots[i].live) rb_order_.push_back(i);
  }
  std::sort(rb_order_.begin(), rb_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              // Exact double tie-break on purpose: must reproduce the batch
              // ordering bit for bit.  hetsched-lint: allow(float-compare)
              if (st_.slots[a].util != st_.slots[b].util) {
                return st_.slots[a].util > st_.slots[b].util;
              }
              return st_.slots[a].seq < st_.slots[b].seq;
            });

  // Trial pass on scratch state; the live assignment is untouched.
  const std::size_t m = platform_.size();
  std::vector<MachineLoad> trial_loads;  // kRmsResponseTime only
  if (slack_form_) {
    rb_util_sum_.assign(m, 0.0);
    rb_hyper_.assign(m, 1.0);
    rb_count_.assign(m, 0);
    rb_slack_.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      rb_slack_[j] = admission_slack(kind_, capacity_[j], 0.0, 0, 1.0);
    }
  } else {
    trial_loads.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      trial_loads.emplace_back(kind_, platform_.speed_exact(j), alpha_);
    }
  }
  if (tiered_) {
    rb_demand_.resize(m);
    for (std::size_t j = 0; j < m; ++j) rb_demand_[j].clear();
  }
  plan.moves.reserve(rb_order_.size());
  for (std::size_t pos = 0; pos < rb_order_.size(); ++pos) {
    const std::uint32_t idx = rb_order_[pos];
    const Slot& s = st_.slots[idx];
    // Tiered: the trial replays the full tiered test (density slack, then
    // escalation over the trial demand mirrors) so a re-pack stays feasible
    // for sets that only the escalation tiers admitted.
    const ConstrainedTask ct =
        tiered_ ? admit::inflate(admit_cfg_, s.task) : ConstrainedTask{};
    std::size_t placed = kNoMachine;
    for (std::size_t j = 0; j < m; ++j) {
      bool fits;
      if (tiered_) {
        if (s.util <= rb_slack_[j]) {
          fits = true;
        } else {
          const double margin =
              (rb_util_sum_[j] + s.util - capacity_[j]) / capacity_[j];
          fits = admit::escalate(admit_cfg_, rb_demand_[j], ct,
                                 speed_exact_[j], margin)
                     .accept;
        }
      } else {
        fits = slack_form_ ? s.util <= rb_slack_[j]
                           : trial_loads[j].can_admit(s.task);
      }
      if (fits) {
        placed = j;
        break;
      }
    }
    if (placed == kNoMachine) {  // infeasible: report, no partial plan
      plan.moves.clear();
      return plan;
    }
    if (slack_form_) {
      admission_fold_step(kind_, s.util, capacity_[placed],
                          rb_util_sum_[placed], rb_hyper_[placed],
                          rb_count_[placed], rb_slack_[placed]);
    } else {
      trial_loads[placed].admit(s.task);
    }
    if (tiered_) rb_demand_[placed].push(ct);
    MigrationPlan::Move mv;
    mv.id = make_id(idx, s.gen);
    mv.task = s.task;
    mv.util = s.util;
    mv.from = s.machine;
    mv.to = static_cast<std::uint32_t>(placed);
    if (mv.from != mv.to) ++plan.migrations;
    plan.moves.push_back(mv);
  }
  plan.feasible = true;
  return plan;
}

RebalanceReport OnlinePartitioner::apply_plan(const MigrationPlan& plan) {
  RebalanceReport rep;
  rep.resident = st_.resident;
  if (!plan.feasible || plan.resident != st_.resident) return rep;
  if (st_.resident == 0) {
    rep.applied = true;
    return rep;
  }
  // Stale-plan guard: every move must still name a live slot.  (A fresh
  // plan from migration_plan() always passes; a plan applied after the
  // resident set changed is rejected with the state untouched.)
  for (const MigrationPlan::Move& mv : plan.moves) {
    const auto slot = static_cast<std::uint32_t>(mv.id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(mv.id >> 32);
    if (slot >= st_.slots.size() || !st_.slots[slot].live ||
        st_.slots[slot].gen != gen) {
      return rep;
    }
  }

  // Commit: replay the exact fold-step sequence of the trial pass (same
  // FP operations in the same order, so the committed state is
  // bit-identical to what the plan computed), then rebuild the resident
  // lists in canonical admission order.
  const std::size_t m = platform_.size();
  std::vector<MachineLoad> trial_loads;  // kRmsResponseTime only
  if (slack_form_) {
    rb_util_sum_.assign(m, 0.0);
    rb_hyper_.assign(m, 1.0);
    rb_count_.assign(m, 0);
    rb_slack_.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      rb_slack_[j] = admission_slack(kind_, capacity_[j], 0.0, 0, 1.0);
    }
  } else {
    trial_loads.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      trial_loads.emplace_back(kind_, platform_.speed_exact(j), alpha_);
    }
  }
  for (std::size_t j = 0; j < m; ++j) st_.residents[j].clear();
  for (const MigrationPlan::Move& mv : plan.moves) {
    const auto slot = static_cast<std::uint32_t>(mv.id & 0xffffffffu);
    if (slack_form_) {
      admission_fold_step(kind_, mv.util, capacity_[mv.to],
                          rb_util_sum_[mv.to], rb_hyper_[mv.to],
                          rb_count_[mv.to], rb_slack_[mv.to]);
    } else {
      trial_loads[mv.to].admit(mv.task);
    }
    if (st_.slots[slot].machine != mv.to) ++rep.migrations;
    st_.slots[slot].machine = mv.to;
    st_.residents[mv.to].push_back(slot);
  }
  if (slack_form_) {
    st_.util_sum = rb_util_sum_;
    st_.hyper = rb_hyper_;
    st_.count = rb_count_;
    st_.slack = rb_slack_;
    if (use_tree_) tree_.build(st_.slack);
  } else {
    st_.loads = std::move(trial_loads);
  }
  rebuild_demand();
  rep.applied = true;
  // The canonical-oracle audit replays the implicit-deadline batch first
  // fit, which has no notion of escalation — tiered mode keeps the
  // whole-state audit only.
  HETSCHED_AUDIT_HOOK(audit_verify_full();
                      if (!tiered_) audit_verify_canonical());
  return rep;
}

RebalanceReport OnlinePartitioner::rebalance() {
  HETSCHED_TIMED(g_metrics.rebalance_ns);
  const MigrationPlan plan = migration_plan();
  RebalanceReport rep;
  rep.resident = plan.resident;
  if (plan.feasible) {
    rep = apply_plan(plan);
    HETSCHED_COUNT(g_metrics.rebalances_applied);
    HETSCHED_COUNT_ADD(g_metrics.migrations, rep.migrations);
    HETSCHED_TRACE_EVENT(obs::TraceKind::kRebalance, true, 0, rep.migrations);
  } else {
    HETSCHED_COUNT(g_metrics.rebalances_failed);
    HETSCHED_TRACE_EVENT(obs::TraceKind::kRebalance, false, 0, 0);
  }
  ++st_.decision_seq;
  std::uint64_t h = st_.decision_checksum;
  h = fnv1a_u64(h, 3);  // op tag: rebalance
  h = fnv1a_u64(h, rep.applied ? 1 : 0);
  h = fnv1a_u64(h, rep.migrations);
  st_.decision_checksum = h;
  return rep;
}

OnlinePartitioner::Snapshot OnlinePartitioner::snapshot() const {
  return Snapshot{st_};
}

bool OnlinePartitioner::restore(const Snapshot& snap) {
  if (snap.state.residents.size() != platform_.size()) return false;
  st_ = snap.state;
  if (slack_form_ && use_tree_) tree_.build(st_.slack);
  rebuild_demand();
  HETSCHED_AUDIT_HOOK(audit_verify_full());
  return true;
}

namespace {

// Little-endian byte helpers for the snapshot payload.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

struct ByteCursor {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;
  std::uint8_t u8() {
    if (left < 1) {
      ok = false;
      return 0;
    }
    --left;
    return *p++;
  }
  std::uint32_t u32() {
    if (left < 4) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (left < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
};

constexpr std::uint32_t kSnapshotPayloadMagic = 0x53504F48;  // "HOPS"
// Version 1: implicit-deadline slots (exec, period), no admission config.
// Version 2 (tiered controllers only): an admission-config block follows
// alpha — test id, band bits, overheads — and every slot record carries a
// deadline.  Legacy controllers keep writing version 1 byte-identically.
constexpr std::uint32_t kSnapshotPayloadVersion = 1;
constexpr std::uint32_t kSnapshotPayloadVersionTiered = 2;

}  // namespace

std::vector<std::uint8_t> OnlinePartitioner::serialize_snapshot() const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + st_.slots.size() * 29 + st_.free_slots.size() * 4 +
              (st_.resident + platform_.size()) * 4);
  put_u32(out, kSnapshotPayloadMagic);
  put_u32(out, tiered_ ? kSnapshotPayloadVersionTiered : kSnapshotPayloadVersion);
  put_u32(out, static_cast<std::uint32_t>(kind_));
  put_u32(out, static_cast<std::uint32_t>(platform_.size()));
  put_u64(out, std::bit_cast<std::uint64_t>(alpha_));
  if (tiered_) {
    // Selected-test id + knobs: recovery refuses a snapshot whose test
    // disagrees with the serving config instead of silently replaying a
    // different decision function.
    put_u32(out, static_cast<std::uint32_t>(admit_cfg_.test));
    put_u64(out, std::bit_cast<std::uint64_t>(admit_cfg_.band));
    put_u64(out, static_cast<std::uint64_t>(admit_cfg_.release_overhead));
    put_u64(out, static_cast<std::uint64_t>(admit_cfg_.preempt_overhead));
  }
  put_u64(out, st_.next_seq);
  put_u64(out, st_.decision_seq);
  put_u64(out, st_.decision_checksum);
  put_u64(out, static_cast<std::uint64_t>(st_.resident));
  put_u32(out, static_cast<std::uint32_t>(st_.slots.size()));
  for (const Slot& s : st_.slots) {
    out.push_back(s.live ? 1 : 0);
    put_u32(out, s.gen);
    put_u32(out, s.machine);
    put_u64(out, s.seq);
    put_u64(out, static_cast<std::uint64_t>(s.task.exec));
    put_u64(out, static_cast<std::uint64_t>(s.task.period));
    if (tiered_) put_u64(out, static_cast<std::uint64_t>(s.task.deadline));
  }
  put_u32(out, static_cast<std::uint32_t>(st_.free_slots.size()));
  for (const std::uint32_t idx : st_.free_slots) put_u32(out, idx);
  for (const auto& res : st_.residents) {
    put_u32(out, static_cast<std::uint32_t>(res.size()));
    for (const std::uint32_t idx : res) put_u32(out, idx);
  }
  return out;
}

bool OnlinePartitioner::restore_bytes(const std::uint8_t* data,
                                      std::size_t size) {
  ByteCursor c{data, size};
  if (c.u32() != kSnapshotPayloadMagic) return false;
  const std::uint32_t want_version =
      tiered_ ? kSnapshotPayloadVersionTiered : kSnapshotPayloadVersion;
  if (c.u32() != want_version) return false;
  if (c.u32() != static_cast<std::uint32_t>(kind_)) return false;
  if (c.u32() != static_cast<std::uint32_t>(platform_.size())) return false;
  if (c.u64() != std::bit_cast<std::uint64_t>(alpha_)) return false;
  if (tiered_) {
    if (c.u32() != static_cast<std::uint32_t>(admit_cfg_.test)) return false;
    if (c.u64() != std::bit_cast<std::uint64_t>(admit_cfg_.band)) return false;
    if (c.u64() != static_cast<std::uint64_t>(admit_cfg_.release_overhead)) {
      return false;
    }
    if (c.u64() != static_cast<std::uint64_t>(admit_cfg_.preempt_overhead)) {
      return false;
    }
  }
  const std::size_t m = platform_.size();
  State ns;
  ns.next_seq = c.u64();
  ns.decision_seq = c.u64();
  ns.decision_checksum = c.u64();
  ns.resident = static_cast<std::size_t>(c.u64());
  const std::uint32_t slot_count = c.u32();
  if (!c.ok || slot_count > size) return false;  // cheap sanity bound
  ns.slots.resize(slot_count);
  std::size_t live = 0;
  for (Slot& s : ns.slots) {
    s.live = c.u8() != 0;
    s.gen = c.u32();
    s.machine = c.u32();
    s.seq = c.u64();
    s.task.exec = static_cast<std::int64_t>(c.u64());
    s.task.period = static_cast<std::int64_t>(c.u64());
    if (tiered_) s.task.deadline = static_cast<std::int64_t>(c.u64());
    if (!c.ok) return false;
    if (s.live) {
      if (!s.task.valid() || s.machine >= m || s.seq >= ns.next_seq) {
        return false;
      }
      // Same computation admit() performed, so the cached value is
      // bit-identical to the live controller's.
      s.util = slot_weight(s.task);
      ++live;
    }
  }
  if (live != ns.resident) return false;
  const std::uint32_t free_count = c.u32();
  if (!c.ok || live + free_count != slot_count) return false;
  ns.free_slots.resize(free_count);
  std::vector<bool> seen(slot_count, false);
  for (std::uint32_t& idx : ns.free_slots) {
    idx = c.u32();
    if (!c.ok || idx >= slot_count || ns.slots[idx].live || seen[idx]) {
      return false;
    }
    seen[idx] = true;
  }
  ns.residents.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t count = c.u32();
    if (!c.ok || count > slot_count) return false;
    ns.residents[j].resize(count);
    for (std::uint32_t& idx : ns.residents[j]) {
      idx = c.u32();
      if (!c.ok || idx >= slot_count || !ns.slots[idx].live ||
          ns.slots[idx].machine != j || seen[idx]) {
        return false;
      }
      seen[idx] = true;
    }
  }
  if (!c.ok || c.left != 0) return false;
  for (std::uint32_t i = 0; i < slot_count; ++i) {
    if (!seen[i]) return false;  // a live slot missing from its machine list
  }

  // Structure validated: install, then recompute the per-machine folds as
  // the canonical left fold over each resident list — bit-identical to the
  // incrementally maintained values (the audit layer proves this), so no
  // floating-point accumulator ever round-trips through the file.
  if (slack_form_) {
    ns.util_sum.assign(m, 0.0);
    ns.hyper.assign(m, 1.0);
    ns.count.assign(m, 0);
    ns.slack.resize(m);
  } else {
    ns.loads.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      ns.loads.emplace_back(kind_, platform_.speed_exact(j), alpha_);
    }
  }
  st_ = std::move(ns);
  for (std::size_t j = 0; j < m; ++j) recompute_machine(j);
  rebuild_demand();
  HETSCHED_AUDIT_HOOK(audit_verify_full());
  return true;
}

bool OnlinePartitioner::snapshot_config_mismatch(const std::uint8_t* data,
                                                 std::size_t size) const {
  ByteCursor c{data, size};
  if (c.u32() != kSnapshotPayloadMagic || !c.ok) return false;
  const std::uint32_t version = c.u32();
  if (version != kSnapshotPayloadVersion &&
      version != kSnapshotPayloadVersionTiered) {
    return false;  // unknown layout: corruption, not a config we can name
  }
  const std::uint32_t want_version =
      tiered_ ? kSnapshotPayloadVersionTiered : kSnapshotPayloadVersion;
  bool differs = version != want_version;
  differs |= c.u32() != static_cast<std::uint32_t>(kind_);
  differs |= c.u32() != static_cast<std::uint32_t>(platform_.size());
  differs |= c.u64() != std::bit_cast<std::uint64_t>(alpha_);
  if (version == kSnapshotPayloadVersionTiered && tiered_) {
    differs |= c.u32() != static_cast<std::uint32_t>(admit_cfg_.test);
    differs |= c.u64() != std::bit_cast<std::uint64_t>(admit_cfg_.band);
    differs |=
        c.u64() != static_cast<std::uint64_t>(admit_cfg_.release_overhead);
    differs |=
        c.u64() != static_cast<std::uint64_t>(admit_cfg_.preempt_overhead);
  }
  return c.ok && differs;
}

void OnlinePartitioner::reserve(std::size_t tasks) {
  st_.slots.reserve(st_.slots.size() + tasks);
  st_.free_slots.reserve(st_.free_slots.size() + tasks);
}

double OnlinePartitioner::machine_utilization(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  return slack_form_ ? st_.util_sum[j] : st_.loads[j].utilization();
}

std::size_t OnlinePartitioner::machine_task_count(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  return st_.residents[j].size();
}

std::optional<std::size_t> OnlinePartitioner::machine_of(
    OnlineTaskId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= st_.slots.size()) return std::nullopt;
  const Slot& s = st_.slots[slot];
  if (!s.live || s.gen != gen) return std::nullopt;
  return static_cast<std::size_t>(s.machine);
}

std::optional<Task> OnlinePartitioner::task_of(OnlineTaskId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= st_.slots.size()) return std::nullopt;
  const Slot& s = st_.slots[slot];
  if (!s.live || s.gen != gen) return std::nullopt;
  return s.task;
}

std::vector<Task> OnlinePartitioner::machine_tasks(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  std::vector<Task> out;
  out.reserve(st_.residents[j].size());
  for (const std::uint32_t idx : st_.residents[j]) {
    out.push_back(st_.slots[idx].task);
  }
  return out;
}

std::vector<std::pair<OnlineTaskId, Task>> OnlinePartitioner::residents()
    const {
  std::vector<std::pair<OnlineTaskId, Task>> out;
  out.reserve(st_.resident);
  for (std::size_t i = 0; i < st_.slots.size(); ++i) {
    const Slot& s = st_.slots[i];
    if (s.live) {
      out.emplace_back(make_id(static_cast<std::uint32_t>(i), s.gen), s.task);
    }
  }
  return out;
}

double OnlinePartitioner::total_utilization() const {
  double sum = 0.0;
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    sum += machine_utilization(j);
  }
  return sum;
}

#if HETSCHED_AUDIT_ENABLED

// Audit checks compare recomputed floating-point state bitwise on purpose:
// the incremental fold and the from-scratch fold execute the same FP
// operations in the same order, so any difference at all is a divergence.
// Each comparison site below carries its own line-scoped allow.

void OnlinePartitioner::audit_verify_machine(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  if (!slack_form_) {
    // Rebuild the RTA admission state from the resident list and compare
    // the observable fold.
    MachineLoad expect(kind_, platform_.speed_exact(j), alpha_);
    for (const std::uint32_t idx : st_.residents[j]) {
      expect.admit(st_.slots[idx].task);
    }
    HETSCHED_CHECK_MSG(
        // hetsched-lint: allow(float-compare)
        expect.utilization() == st_.loads[j].utilization() &&
            expect.tasks() == st_.loads[j].tasks(),
        "audit: RTA machine state diverged from resident fold");
    return;
  }
  double util_sum = 0.0;
  double hyper = 1.0;
  for (const std::uint32_t idx : st_.residents[j]) {
    const Slot& s = st_.slots[idx];
    HETSCHED_CHECK_MSG(s.live && s.machine == j,
                       "audit: resident list names a dead or foreign slot");
    // hetsched-lint: allow(float-compare)
    HETSCHED_CHECK_MSG(s.util == slot_weight(s.task),
                       "audit: cached slot weight is stale");
    util_sum += s.util;
    hyper *= s.util / capacity_[j] + 1.0;
  }
  const double slack =
      admission_slack(kind_, capacity_[j], util_sum, st_.residents[j].size(),
                      hyper);
  // hetsched-lint: allow(float-compare) — bit-identity is the contract.
  HETSCHED_CHECK_MSG(util_sum == st_.util_sum[j],
                     "audit: util_sum fold diverged from recomputation");
  // hetsched-lint: allow(float-compare)
  HETSCHED_CHECK_MSG(hyper == st_.hyper[j],
                     "audit: hyperbolic fold diverged from recomputation");
  HETSCHED_CHECK_MSG(st_.count[j] == st_.residents[j].size(),
                     "audit: task count diverged from resident list");
  // hetsched-lint: allow(float-compare)
  HETSCHED_CHECK_MSG(slack == st_.slack[j],
                     "audit: slack diverged from recomputation");
  if (use_tree_) {
    // hetsched-lint: allow(float-compare)
    HETSCHED_CHECK_MSG(tree_.slack_at(j) == st_.slack[j],
                       "audit: SlackTree leaf out of sync with slack array");
  }
}

void OnlinePartitioner::audit_verify_decision(const Task& t, double w,
                                              std::size_t chosen,
                                              std::uint8_t tier) const {
  // Replay the first-fit decision with the reference scan.  On the admit
  // path the per-machine state has already been folded forward for the
  // chosen machine, so reconstruct its pre-admit admissibility from the
  // decision itself: machines left of `chosen` must reject, and `chosen`
  // (when a machine was picked) must have admitted — which for slack-form
  // kinds we can still check because only machine `chosen` mutated.
  //
  // Tiered mode: the slack array answers only the tier-0 density query, so
  // "machines left of chosen reject tier 0" still holds (a tier-0 accept is
  // a full accept), but a tier-escalated admit legitimately lands on a
  // machine whose density slack rejected it — the positive check below is
  // therefore gated on tier 0.
  const std::size_t m = platform_.size();
  const std::size_t stop = chosen == kNoMachine ? m : chosen;
  for (std::size_t j = 0; j < stop; ++j) {
    const bool admits =
        slack_form_ ? w <= st_.slack[j] : st_.loads[j].can_admit(t);
    HETSCHED_CHECK_MSG(!admits,
                       "audit: first fit skipped an admitting machine");
  }
  if (chosen != kNoMachine && slack_form_ && tier == admit::kTierBound) {
    // Undo the fold on the chosen machine: recompute its pre-admit state
    // from the residents minus the newest arrival (the last list entry).
    double util_sum = 0.0;
    double hyper = 1.0;
    std::size_t count = 0;
    const auto& res = st_.residents[chosen];
    for (std::size_t k = 0; k + 1 < res.size(); ++k) {
      const double u = st_.slots[res[k]].util;
      util_sum += u;
      hyper *= u / capacity_[chosen] + 1.0;
      ++count;
    }
    const double pre_slack =
        admission_slack(kind_, capacity_[chosen], util_sum, count, hyper);
    HETSCHED_CHECK_MSG(w <= pre_slack,
                       "audit: first fit placed on a rejecting machine");
  }
}

void OnlinePartitioner::audit_verify_full() const {
  const std::size_t m = platform_.size();
  std::size_t resident = 0;
  for (std::size_t j = 0; j < m; ++j) {
    audit_verify_machine(j);
    resident += st_.residents[j].size();
  }
  HETSCHED_CHECK_MSG(resident == st_.resident,
                     "audit: resident count diverged from machine lists");
  std::size_t live = 0;
  for (const Slot& s : st_.slots) {
    if (s.live) ++live;
  }
  HETSCHED_CHECK_MSG(live == st_.resident,
                     "audit: live slot count diverged from resident count");
  HETSCHED_CHECK_MSG(st_.free_slots.size() + live == st_.slots.size(),
                     "audit: slot arena leaked or double-freed a slot");
}

void OnlinePartitioner::audit_verify_canonical() const {
  // The controller just committed the canonical re-pack, so batch first fit
  // over the residents (laid out in admission order, the batch tie-break)
  // must reproduce the live assignment bit for bit.  The batch path is the
  // independent scratch engine, so this bridges the two engines the other
  // way round from the batch path's own online-replay audit.
  std::vector<std::uint32_t> order;
  order.reserve(st_.resident);
  for (std::uint32_t i = 0; i < st_.slots.size(); ++i) {
    if (st_.slots[i].live) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return st_.slots[a].seq < st_.slots[b].seq;
            });
  std::vector<Task> tasks;
  tasks.reserve(order.size());
  for (const std::uint32_t idx : order) tasks.push_back(st_.slots[idx].task);
  const PartitionResult oracle = first_fit_partition(
      TaskSet(std::move(tasks)), platform_, kind_, alpha_,
      use_tree_ ? PartitionEngine::kSegmentTree : PartitionEngine::kNaive);
  HETSCHED_CHECK_MSG(oracle.feasible,
                     "audit: batch oracle rejects the committed re-pack");
  for (std::size_t i = 0; i < order.size(); ++i) {
    HETSCHED_CHECK_MSG(oracle.assignment[i] == st_.slots[order[i]].machine,
                       "audit: online assignment diverged from batch oracle");
  }
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    // hetsched-lint: allow(float-compare) — bit-identity is the contract.
    HETSCHED_CHECK_MSG(oracle.machine_utilization[j] == machine_utilization(j),
                       "audit: per-machine load diverged from batch oracle");
  }
}

#endif  // HETSCHED_AUDIT_ENABLED

std::string OnlinePartitioner::to_string() const {
  std::ostringstream os;
  os << hetsched::to_string(kind_) << " alpha=" << std::fixed
     << std::setprecision(3) << alpha_ << " resident=" << st_.resident
     << " load=[" << std::setprecision(6);
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    if (j > 0) os << ",";
    os << machine_utilization(j);
  }
  os << "]";
  return os.str();
}

}  // namespace hetsched
