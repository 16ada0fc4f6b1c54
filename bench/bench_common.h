// Shared scaffolding for the experiment binaries (benches E1..E9).
//
// Every experiment prints a header identifying itself, one or more
// fixed-width tables (the artifact a paper would typeset), and mirrors each
// table into a CSV file next to the binary so results can be re-plotted.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "util/table.h"

namespace hetsched::bench {

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_section(const std::string& caption) {
  std::printf("\n--- %s ---\n", caption.c_str());
}

// Prints the table and writes "<id><suffix>.csv" into the working directory.
inline void emit(const Table& table, const std::string& id,
                 const std::string& suffix = "") {
  std::printf("%s", table.render().c_str());
  const std::string path = id + suffix + ".csv";
  if (table.write_csv(path)) {
    std::printf("[csv: %s]\n", path.c_str());
  }
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hetsched::bench
