#ifndef FIELDREP_COMMON_CLOCK_H_
#define FIELDREP_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace fieldrep {

/// Monotonic wall clock in nanoseconds: the engine's one timing base
/// (device timers, lock waits, query traces, benches).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace fieldrep

#endif  // FIELDREP_COMMON_CLOCK_H_
