#include "core/task.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>

namespace hetsched {

namespace {

// Radix records: a 32-bit sort key in the high half, the task index in the
// low half, so each scatter step moves one 8-byte word and records with
// equal keys compare by index.
constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

std::uint32_t record_index(std::uint64_t rec) {
  return static_cast<std::uint32_t>(rec);
}

// Ping-pong buffers for the radix passes, reused across calls per thread so
// large repeated orderings (the partitioning fast path) never reallocate.
struct OrderScratch {
  std::array<std::vector<std::uint64_t>, 2> rec;
};

OrderScratch& order_scratch() {
  thread_local OrderScratch s;
  return s;
}

// Stable LSD radix sort of a[0, len) on record bits [32, 32 + key_bits),
// key_bits <= 32, in at most three 11-bit passes that ping-pong with b.
// Returns the buffer holding the result.  A digit every record shares is
// skipped: its pass would be a no-op.
std::uint64_t* radix_sort_records(std::uint64_t* a, std::uint64_t* b,
                                  std::size_t len, unsigned key_bits) {
  const unsigned passes = (key_bits + kDigitBits - 1) / kDigitBits;
  // One read computes every digit histogram: a counting histogram does not
  // depend on the order the keys are visited in.
  std::array<std::array<std::uint32_t, kBuckets>, 3> count{};
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t key = a[i] >> 32;
    for (unsigned p = 0; p < passes; ++p) {
      ++count[p][(key >> (p * kDigitBits)) & (kBuckets - 1)];
    }
  }
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned shift = 32 + p * kDigitBits;
    if (count[p][(a[0] >> shift) & (kBuckets - 1)] == len) continue;
    std::array<std::uint32_t, kBuckets> offset;
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      offset[d] = sum;
      sum += count[p][d];
    }
    for (std::size_t i = 0; i < len; ++i) {
      b[offset[(a[i] >> shift) & (kBuckets - 1)]++] = a[i];
    }
    std::swap(a, b);
  }
  return a;
}

}  // namespace

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (const Task& t : tasks_) {
    HETSCHED_CHECK_MSG(t.valid(), "task with non-positive exec or period");
  }
}

double TaskSet::total_utilization() const {
  double u = 0;
  for (const Task& t : tasks_) u += t.utilization();
  return u;
}

Rational TaskSet::total_utilization_exact() const {
  Rational u;
  for (const Task& t : tasks_) u += t.utilization_exact();
  return u;
}

double TaskSet::max_utilization() const {
  double u = 0;
  for (const Task& t : tasks_) u = std::max(u, t.utilization());
  return u;
}

std::vector<std::size_t> TaskSet::order_by_utilization_desc() const {
  std::vector<std::size_t> order;
  order_by_utilization_desc(order);
  return order;
}

void TaskSet::order_by_utilization_desc(std::vector<std::size_t>& out) const {
  // The permutation is DEFINED as a stable sort under the exact rational
  // comparison c_a/p_a > c_b/p_b (exactness avoids platform-dependent ties
  // from double rounding).  Rounding is monotone, so a strict double
  // inequality never contradicts the exact order, and the permutation is
  // also the sort by (double utilization desc, exact rational desc, index).
  // Two implementations produce it:
  //
  //  * small n: comparison sort on exactly that triple;
  //  * large n: LSD radix sort on the utilization bit patterns (for
  //    positive doubles the bit pattern is order-monotone; complementing
  //    gives descending order).  The keys' common prefix is dropped and
  //    only the next 32 bits are sorted, in three 11-bit counting passes
  //    over 8-byte (key, index) records.  The passes are stable, so tasks
  //    whose truncated keys tie emerge in index order, which is already
  //    right when their full keys and rationals are equal too.  A tied run
  //    that mixes full keys or rationals is re-sorted on the triple.
  //
  // Both therefore yield the identical permutation, and neither allocates
  // once the per-thread radix buffers have grown to n.  A large order
  // costs at most three radix passes plus the comparison sorts of the
  // mixed runs.
  const std::size_t n = tasks_.size();
  out.resize(n);
  const auto key_of = [this](std::size_t i) {
    // Complement: ascending key order == descending utilization.
    return ~std::bit_cast<std::uint64_t>(tasks_[i].utilization());
  };
  const auto exact_desc = [this](std::size_t a, std::size_t b) {
    const int128 lhs = static_cast<int128>(tasks_[a].exec) * tasks_[b].period;
    const int128 rhs = static_cast<int128>(tasks_[b].exec) * tasks_[a].period;
    return lhs > rhs;
  };
  // Strict total order on (key, exact rational desc, index).
  const auto canonical = [&key_of, &exact_desc](std::size_t a, std::size_t b) {
    const std::uint64_t ka = key_of(a);
    const std::uint64_t kb = key_of(b);
    if (ka != kb) return ka < kb;
    if (exact_desc(a, b)) return true;
    if (exact_desc(b, a)) return false;
    return a < b;
  };
  const auto begin_at = [&out](std::size_t i) {
    return out.begin() + static_cast<std::ptrdiff_t>(i);
  };

  if (n < 128) {
    std::iota(out.begin(), out.end(), std::size_t{0});
    std::sort(out.begin(), out.end(), canonical);
    return;
  }

  HETSCHED_CHECK(n <= 0xFFFFFFFFu);
  OrderScratch& s = order_scratch();
  for (auto& r : s.rec) r.resize(n);
  std::uint64_t* rec = s.rec[0].data();
  std::uint64_t* tmp = s.rec[1].data();
  std::uint64_t kmin = ~std::uint64_t{0};
  std::uint64_t kmax = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rec[i] = key_of(i);
    kmin = std::min(kmin, rec[i]);
    kmax = std::max(kmax, rec[i]);
  }
  // Bits below the prefix every key shares; only the top 32 of them are
  // sorted, the `low_bits` under those are left to the run repair.
  const auto span =
      static_cast<unsigned>(64 - std::countl_zero(kmin ^ kmax));
  const unsigned low_bits = span > 32 ? span - 32 : 0;
  for (std::size_t i = 0; i < n; ++i) {
    rec[i] = ((rec[i] >> low_bits) << 32) | i;
  }
  rec = radix_sort_records(rec, tmp, n, std::min(span, 32u));
  for (std::size_t i = 0; i < n; ++i) out[i] = record_index(rec[i]);

  // Repair the runs whose truncated keys tie.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && rec[j] >> 32 == rec[i] >> 32) ++j;
    const std::size_t first = out[i];
    bool mixed = false;
    for (std::size_t k = i + 1; k < j && !mixed; ++k) {
      mixed = key_of(out[k]) != key_of(first) ||
              exact_desc(first, out[k]) || exact_desc(out[k], first);
    }
    // A run with equal keys and rationals is in index order, which is
    // already canonical; std::sort does not allocate.
    if (mixed) std::sort(begin_at(i), begin_at(j), canonical);
    i = j;
  }
}

void TaskSet::push_back(const Task& t) {
  HETSCHED_CHECK_MSG(t.valid(), "task with non-positive exec or period");
  tasks_.push_back(t);
}

std::string TaskSet::to_string() const {
  std::ostringstream os;
  os << "n=" << tasks_.size() << " U=" << total_utilization() << " {";
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (i > 0) os << ",";
    os << "(" << tasks_[i].exec << "," << tasks_[i].period << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace hetsched
