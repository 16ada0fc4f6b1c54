// Shared surface between the fuzz harnesses and whichever driver
// runs them.  Each harness defines the libFuzzer entry point
// LLVMFuzzerTestOneInput; the driver is either real libFuzzer (clang,
// -fsanitize=fuzzer, detected at configure time) or the standalone
// fallback in fuzz_driver.cc (any compiler, same command line:
// -runs=N -seed=S -max_len=M -max_total_time=T plus corpus dirs/files),
// so `ctest -L fuzz` and tools/run_fuzz.sh behave identically on both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace hetsched::fuzz {

// Harness invariant check: abort (not assert, which NDEBUG would erase)
// so both libFuzzer and the standalone driver treat a broken round-trip
// exactly like a sanitizer report and save the offending input.
inline void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz: invariant failed: %s\n", what);
    std::abort();
  }
}

}  // namespace hetsched::fuzz
