// The one monotonic host clock of the tree.
//
// Every wall-clock measurement — bench sweep timing, observability trace
// timestamps and the run-report phase timers (src/obs/), progress ETAs —
// reads this helper instead of std::chrono directly, so all host-time
// quantities are taken from the same monotonic source and are mutually
// comparable. Simulated time (Cycle) never passes through here.
#pragma once

#include <chrono>

#include "util/types.h"

namespace sempe {

/// Monotonic host time in nanoseconds. Only differences are meaningful;
/// the epoch is unspecified (steady_clock's).
inline u64 mono_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Elapsed-time helper over mono_ns(): starts at construction, reads
/// without stopping.
class Stopwatch {
 public:
  Stopwatch() : start_(mono_ns()) {}
  void reset() { start_ = mono_ns(); }
  u64 elapsed_ns() const { return mono_ns() - start_; }
  double elapsed_seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  u64 start_;
};

}  // namespace sempe
