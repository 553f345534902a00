#include "common/lock_rank.h"

#if defined(FIELDREP_LOCK_RANK_CHECKS)

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace fieldrep {
namespace lock_rank {
namespace {

struct HeldLock {
  const void* lock;
  LockRank rank;
  const char* name;
};

std::vector<HeldLock>& Held() {
  // Function-local so first use on a thread constructs it; the engine never
  // holds a lock across thread exit, so destruction order is a non-issue.
  static thread_local std::vector<HeldLock> held;
  return held;
}

[[noreturn]] void Die(const char* what, const HeldLock& held,
                      const void* lock, LockRank rank, const char* name) {
  std::fprintf(stderr,
               "[fieldrep] lock-rank violation: %s: acquiring \"%s\" "
               "(rank %u, %p) while holding \"%s\" (rank %u, %p); locks must "
               "be taken in ascending rank order (DESIGN.md #13)\n",
               what, name, static_cast<unsigned>(rank), lock, held.name,
               static_cast<unsigned>(held.rank), held.lock);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void OnAcquire(const void* lock, LockRank rank, const char* name,
               bool blocking) {
  std::vector<HeldLock>& held = Held();
  for (const HeldLock& h : held) {
    if (h.lock == lock) {
      Die("re-acquiring a non-recursive lock this thread already holds", h,
          lock, rank, name);
    }
  }
  if (blocking) {
    for (const HeldLock& h : held) {
      bool ascending = static_cast<uint16_t>(rank) >
                       static_cast<uint16_t>(h.rank);
      bool same_rank_ok = rank == h.rank && LockRankAllowsSameRank(rank);
      if (!ascending && !same_rank_ok) {
        Die("rank order inverted", h, lock, rank, name);
      }
    }
  }
  held.push_back({lock, rank, name});
}

void OnRelease(const void* lock, const char* name) {
  std::vector<HeldLock>& held = Held();
  for (size_t i = held.size(); i > 0; --i) {
    if (held[i - 1].lock == lock) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
  std::fprintf(stderr,
               "[fieldrep] lock-rank violation: releasing \"%s\" (%p) that "
               "this thread does not hold\n",
               name, lock);
  std::fflush(stderr);
  std::abort();
}

size_t HeldCount() { return Held().size(); }

}  // namespace lock_rank
}  // namespace fieldrep

#endif  // FIELDREP_LOCK_RANK_CHECKS
