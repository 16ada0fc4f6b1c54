// The offline-scale instance generator of bench_e5_runtime, shared by the
// engine tests so they run the same instances the runtime study reports.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/platform.h"
#include "core/task.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "util/rng.h"

namespace hetsched {

struct E5Workload {
  TaskSet tasks;
  Platform platform;
};

// n tasks at U/S = 0.7 on an m-machine geometric platform, seeded by
// (n, m).
inline E5Workload make_e5_workload(std::size_t n, std::size_t m) {
  Rng rng(0xE5 + n * 31 + m);
  E5Workload w;
  w.platform =
      geometric_platform(m, std::min(1.2, 1.0 + 8.0 / static_cast<double>(m)));
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = w.platform.max_speed();
  spec.total_utilization =
      std::min(0.7 * w.platform.total_speed(),
               0.3 * static_cast<double>(n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  w.tasks = generate_taskset(rng, spec);
  return w;
}

}  // namespace hetsched
