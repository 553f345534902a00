#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "common/strings.h"
#include "storage/checksum.h"
#include "telemetry/metrics.h"

namespace fieldrep {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

PageGuard::PageGuard(BufferPool* pool, size_t frame_index, LatchMode mode)
    : pool_(pool), frame_index_(frame_index), mode_(mode) {
#ifndef NDEBUG
  debug_state_ = DebugState::kActive;
#endif
}

PageGuard::~PageGuard() { ReleaseInternal(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), frame_index_(other.frame_index_), mode_(other.mode_) {
#ifndef NDEBUG
  debug_state_ = other.debug_state_;
  other.debug_state_ = DebugState::kMoved;
#endif
  other.pool_ = nullptr;
  other.frame_index_ = 0;
  other.mode_ = LatchMode::kExclusive;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    ReleaseInternal();
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    mode_ = other.mode_;
#ifndef NDEBUG
    debug_state_ = other.debug_state_;
    other.debug_state_ = DebugState::kMoved;
#endif
    other.pool_ = nullptr;
    other.frame_index_ = 0;
    other.mode_ = LatchMode::kExclusive;
  }
  return *this;
}

uint8_t* PageGuard::data() {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  return pool_->frames_[frame_index_].data.get();
}

const uint8_t* PageGuard::data() const {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  return pool_->frames_[frame_index_].data.get();
}

PageId PageGuard::page_id() const {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  return pool_->frames_[frame_index_].page_id.load(kRelaxed);
}

void PageGuard::MarkDirty() {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  // Readers never dirty pages: the single-writer model (and the WAL's
  // pre-image capture, which only exclusive fetches trigger) depends on it.
  assert(mode_ == LatchMode::kExclusive);
  BufferPool::Frame& frame = pool_->frames_[frame_index_];
  frame.dirty.store(true, kRelaxed);
  if (pool_->observer_ != nullptr) {
    pool_->observer_->OnPageDirtied(frame.page_id.load(kRelaxed));
  }
}

void PageGuard::Release() {
#ifndef NDEBUG
  assert(debug_state_ != DebugState::kReleased && "PageGuard double release");
  assert(debug_state_ != DebugState::kMoved &&
         "PageGuard released after being moved from");
#endif
  ReleaseInternal();
}

void PageGuard::ReleaseInternal() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_index_, mode_);
    pool_ = nullptr;
    frame_index_ = 0;
  }
#ifndef NDEBUG
  if (debug_state_ == DebugState::kActive) {
    debug_state_ = DebugState::kReleased;
  }
#endif
}

BufferPool::BufferPool(StorageDevice* device, size_t capacity)
    : device_(device) {
  assert(capacity >= 1);
  capacity_ = capacity;
  frames_ = std::make_unique<Frame[]>(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].data = AllocatePageBuffer();
  }
  shards_ = std::make_unique<Shard[]>(kShardCount);
  free_frames_.reserve(capacity);
  for (size_t i = capacity; i > 0; --i) free_frames_.push_back(i - 1);
}

BufferPool::BufferPool(std::unique_ptr<StorageDevice> device, size_t capacity)
    : BufferPool(device.get(), capacity) {
  owned_device_ = std::move(device);
}

BufferPool::~BufferPool() {
  // Best-effort writeback. A destructor cannot propagate the status, but
  // silently discarding dirty data would hide real corruption — report it.
  Status s = FlushAll();
  if (!s.ok()) {
    std::fprintf(stderr,
                 "fieldrep: BufferPool writeback failed at shutdown, dirty "
                 "pages lost: %s\n",
                 s.ToString().c_str());
  }
}

Status BufferPool::FetchPage(PageId page_id, PageGuard* guard,
                             LatchMode mode) {
  stats_.fetches.fetch_add(1, kRelaxed);
  Shard& shard = ShardFor(page_id);
  size_t frame_index = kFrameInFlight;
  bool waited_in_flight = false;
  {
    UniqueMutexLock lock(shard.mu);
    for (;;) {
      auto it = shard.table.find(page_id);
      if (it == shard.table.end()) {
        // Miss: claim the fill so concurrent fetchers of this page wait
        // for our device read instead of issuing their own (single-flight
        // — also what keeps the logical counters interleaving-invariant).
        shard.table.emplace(page_id, kFrameInFlight);
        break;
      }
      if (it->second == kFrameInFlight) {
        waited_in_flight = true;
        shard.cv.wait(lock);
        continue;  // installed, or abandoned (then we claim the fill)
      }
      frame_index = it->second;
      Frame& frame = frames_[frame_index];
      if (frame.prefetched.load(kRelaxed)) {
        // First logical access of a prefetched page: charge the read the
        // caller would have performed without read-ahead, so the logical
        // counters are independent of the read-ahead window.
        frame.prefetched.store(false, kRelaxed);
        stats_.disk_reads.fetch_add(1, kRelaxed);
        shard.misses.fetch_add(1, kRelaxed);
      } else {
        stats_.hits.fetch_add(1, kRelaxed);
        shard.hits.fetch_add(1, kRelaxed);
      }
      frame.pin_count.fetch_add(1, kRelaxed);
      frame.referenced.store(true, kRelaxed);
      break;
    }
  }
  if (waited_in_flight) single_flight_waits_.fetch_add(1, kRelaxed);

  if (frame_index != kFrameInFlight) {
    // Hit. The pin (taken under the shard lock) keeps the frame resident;
    // the latch is acquired with no other lock held, so blocking on a
    // writer here cannot deadlock.
    Frame& frame = frames_[frame_index];
    LatchFrame(frame, mode);
    if (mode == LatchMode::kExclusive && observer_ != nullptr) {
      observer_->OnPageAccess(page_id, frame.data.get());
    }
    *guard = PageGuard(this, frame_index, mode);
    return Status::OK();
  }

  // Miss with the fill claimed: take a victim and read the device.
  {
    MutexLock victim_lock(victim_mutex_);
    Status s = GetVictimFrame(&frame_index);
    if (!s.ok()) {
      AbandonFill(page_id, kFrameInFlight);
      return s;
    }
    // Claim against concurrent sweeps before victim_mutex_ drops: the
    // frame is off the free list and out of the table, and a nonzero pin
    // keeps the clock hand away while we fill it.
    frames_[frame_index].pin_count.store(1, kRelaxed);
  }
  Frame& frame = frames_[frame_index];
  uint64_t start_ns = NowNs();
  Status s = device_->ReadPage(page_id, frame.data.get());
  stats_.read_ns.fetch_add(NowNs() - start_ns, kRelaxed);
  if (!s.ok()) {
    AbandonFill(page_id, frame_index);
    return s;
  }
  stats_.disk_reads.fetch_add(1, kRelaxed);
  stats_.bytes_read.fetch_add(kPageSize, kRelaxed);
  shard.misses.fetch_add(1, kRelaxed);
  // Page 0 is the magic-prefixed database header, not a headered page.
  if (verify_checksums_.load(kRelaxed) && page_id != 0 &&
      !VerifyPageChecksum(frame.data.get())) {
    AbandonFill(page_id, frame_index);
    return Status::Corruption(
        StringPrintf("page %u failed checksum verification", page_id));
  }
  frame.page_id.store(page_id, kRelaxed);
  frame.page_lsn.store(0, kRelaxed);
  frame.dirty.store(false, kRelaxed);
  frame.referenced.store(true, kRelaxed);
  // Release pairs with the acquire loads in the whole-pool walks: a walk
  // that observes in_use == true reads this fill's page_id, not a stale
  // one (the walk holds no shard lock, so the atomics carry the ordering).
  frame.in_use.store(true, std::memory_order_release);
  frame.prefetched.store(false, kRelaxed);
  {
    MutexLock lock(shard.mu);
    shard.table[page_id] = frame_index;
  }
  shard.cv.notify_all();
  LatchFrame(frame, mode);
  if (mode == LatchMode::kExclusive && observer_ != nullptr) {
    observer_->OnPageAccess(page_id, frame.data.get());
  }
  *guard = PageGuard(this, frame_index, mode);
  return Status::OK();
}

void BufferPool::LatchFrame(Frame& frame, LatchMode mode) {
  if (mode == LatchMode::kExclusive) {
    if (!frame.latch.try_lock()) {
      latch_waits_.fetch_add(1, kRelaxed);
      frame.latch.lock();
    }
  } else {
    if (!frame.latch.try_lock_shared()) {
      latch_waits_.fetch_add(1, kRelaxed);
      frame.latch.lock_shared();
    }
  }
}

Status BufferPool::NewPage(PageGuard* guard) {
  PageId page_id;
  FIELDREP_RETURN_IF_ERROR(device_->AllocatePage(&page_id));
  Shard& shard = ShardFor(page_id);
  {
    // A stale concurrent fetch of this (previously unallocated) id may
    // have an in-flight marker up; wait it out, then claim the slot.
    UniqueMutexLock lock(shard.mu);
    shard.cv.wait(lock, [&] {
      auto it = shard.table.find(page_id);
      return it == shard.table.end() || it->second != kFrameInFlight;
    });
    assert(shard.table.count(page_id) == 0);
    shard.table.emplace(page_id, kFrameInFlight);
  }
  size_t frame_index;
  {
    MutexLock victim_lock(victim_mutex_);
    Status s = GetVictimFrame(&frame_index);
    if (!s.ok()) {
      AbandonFill(page_id, kFrameInFlight);
      return s;
    }
    frames_[frame_index].pin_count.store(1, kRelaxed);
  }
  Frame& frame = frames_[frame_index];
  std::memset(frame.data.get(), 0, kPageSize);
  frame.page_id.store(page_id, kRelaxed);
  frame.page_lsn.store(0, kRelaxed);
  // A fresh page is dirty by definition: its contents exist only here.
  frame.dirty.store(true, kRelaxed);
  frame.referenced.store(true, kRelaxed);
  frame.in_use.store(true, std::memory_order_release);
  frame.prefetched.store(false, kRelaxed);
  {
    MutexLock lock(shard.mu);
    shard.table[page_id] = frame_index;
  }
  shard.cv.notify_all();
  LatchFrame(frame, LatchMode::kExclusive);
  if (observer_ != nullptr) {
    observer_->OnPageAccess(page_id, frame.data.get());
    observer_->OnPageDirtied(page_id);
  }
  *guard = PageGuard(this, frame_index, LatchMode::kExclusive);
  return Status::OK();
}

Status BufferPool::Prefetch(std::span<const PageId> page_ids) {
  if (read_ahead_window_.load(kRelaxed) == 0 || page_ids.empty()) {
    return Status::OK();
  }

  // Distinct, in-range ids in ascending order (the device coalesces
  // contiguous runs, so sorted order maximises run length). Residency is
  // decided per shard at claim time below.
  std::vector<PageId> candidates(page_ids.begin(), page_ids.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const PageId device_pages = device_->page_count();
  std::erase_if(candidates, [&](PageId id) { return id >= device_pages; });
  if (candidates.empty()) return Status::OK();

  // Warm-path fast-out: drop ids that are already resident (or in
  // flight) before touching the global victim mutex, so a fully-resident
  // window costs only per-shard lookups and concurrent readers' prefetch
  // probes never serialize on victim_mutex_. Racy by design — the claim
  // loop below re-checks under the shard lock before claiming.
  std::erase_if(candidates, [&](PageId id) {
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    return shard.table.count(id) != 0;
  });
  if (candidates.empty()) return Status::OK();

  // Claim an in-flight table slot and a victim frame per non-resident id.
  // The pin keeps a later victim sweep in this same batch (and concurrent
  // sweeps once victim_mutex_ drops) from handing the frame out twice.
  std::vector<PageId> ids;
  std::vector<size_t> frame_indices;
  ids.reserve(candidates.size());
  frame_indices.reserve(candidates.size());
  Status claim_error;
  {
    MutexLock victim_lock(victim_mutex_);
    for (PageId id : candidates) {
      Shard& shard = ShardFor(id);
      {
        MutexLock lock(shard.mu);
        if (shard.table.count(id) != 0) continue;  // resident or in flight
        shard.table.emplace(id, kFrameInFlight);
      }
      size_t frame_index;
      Status s = GetVictimFrame(&frame_index);
      if (!s.ok()) {
        {
          MutexLock lock(shard.mu);
          shard.table.erase(id);
        }
        shard.cv.notify_all();
        if (s.IsFailedPrecondition()) break;  // all pinned: shrink the batch
        claim_error = s;  // dirty-victim writeback failed: real error
        break;
      }
      frames_[frame_index].pin_count.store(1, kRelaxed);
      ids.push_back(id);
      frame_indices.push_back(frame_index);
    }
  }
  Status s = claim_error;
  if (s.ok() && !ids.empty()) {
    std::vector<uint8_t*> bufs(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      bufs[i] = frames_[frame_indices[i]].data.get();
    }
    uint64_t start_ns = NowNs();
    s = device_->ReadPages(ids, bufs);
    stats_.read_ns.fetch_add(NowNs() - start_ns, kRelaxed);
  }
  if (!s.ok()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      AbandonFill(ids[i], frame_indices[i]);
    }
    return s;
  }

  // Install each page unpinned and logically uncharged. A page failing
  // checksum verification is simply not installed (its claim is
  // abandoned), so the next on-demand fetch sees exactly what it would
  // have seen without read-ahead, and reports the error itself.
  const bool verify = verify_checksums_.load(kRelaxed);
  stats_.batched_reads.fetch_add(ids.size(), kRelaxed);
  stats_.bytes_read.fetch_add(ids.size() * kPageSize, kRelaxed);
  for (size_t i = 0; i < ids.size(); ++i) {
    const PageId page_id = ids[i];
    Frame& frame = frames_[frame_indices[i]];
    if (verify && page_id != 0 && !VerifyPageChecksum(frame.data.get())) {
      AbandonFill(page_id, frame_indices[i]);
      continue;
    }
    frame.page_id.store(page_id, kRelaxed);
    frame.page_lsn.store(0, kRelaxed);
    frame.dirty.store(false, kRelaxed);
    frame.referenced.store(true, kRelaxed);
    frame.in_use.store(true, std::memory_order_release);
    frame.prefetched.store(true, kRelaxed);
    Shard& shard = ShardFor(page_id);
    {
      MutexLock lock(shard.mu);
      frame.pin_count.store(0, kRelaxed);
      shard.table[page_id] = frame_indices[i];
    }
    shard.cv.notify_all();
  }
  return Status::OK();
}

Status BufferPool::PrefetchOidPages(std::span<const Oid> oids) {
  if (read_ahead_window_.load(kRelaxed) == 0 || oids.empty()) {
    return Status::OK();
  }
  std::vector<PageId> pages;
  pages.reserve(oids.size());
  for (const Oid& oid : oids) {
    if (oid.valid()) pages.push_back(oid.page_id);
  }
  return Prefetch(pages);
}

void BufferPool::AbandonFill(PageId page_id, size_t frame_index) {
  if (frame_index != kFrameInFlight) {
    Frame& frame = frames_[frame_index];
    frame.in_use.store(false, kRelaxed);
    frame.page_id.store(kInvalidPageId, kRelaxed);
    frame.prefetched.store(false, kRelaxed);
    frame.pin_count.store(0, kRelaxed);
    MutexLock victim_lock(victim_mutex_);
    free_frames_.push_back(frame_index);
  }
  Shard& shard = ShardFor(page_id);
  {
    MutexLock lock(shard.mu);
    auto it = shard.table.find(page_id);
    if (it != shard.table.end() && it->second == kFrameInFlight) {
      shard.table.erase(it);
    }
  }
  shard.cv.notify_all();
}

Status BufferPool::WriteBackFrame(Frame& frame) {
  const PageId page_id = frame.page_id.load(kRelaxed);
  if (observer_ != nullptr) {
    FIELDREP_RETURN_IF_ERROR(
        observer_->BeforePageFlush(page_id, frame.page_lsn.load(kRelaxed)));
  }
  // Page 0 is the magic-prefixed database header, not a headered page.
  if (page_id != 0) StampPageChecksum(frame.data.get());
  uint64_t start_ns = NowNs();
  Status s = device_->WritePage(page_id, frame.data.get());
  stats_.write_ns.fetch_add(NowNs() - start_ns, kRelaxed);
  FIELDREP_RETURN_IF_ERROR(s);
  stats_.disk_writes.fetch_add(1, kRelaxed);
  stats_.bytes_written.fetch_add(kPageSize, kRelaxed);
  frame.dirty.store(false, kRelaxed);
  return Status::OK();
}

Status BufferPool::FlushFramesOrdered(std::vector<size_t> frame_indices) {
  std::sort(frame_indices.begin(), frame_indices.end(),
            [&](size_t a, size_t b) {
              return frames_[a].page_id.load(kRelaxed) <
                     frames_[b].page_id.load(kRelaxed);
            });
  std::vector<PageId> ids;
  std::vector<const uint8_t*> bufs;
  PageBuffer staged;

  size_t i = 0;
  while (i < frame_indices.size()) {
    // Maximal contiguous PageId run starting at i.
    size_t run = 1;
    while (i + run < frame_indices.size() &&
           frames_[frame_indices[i + run]].page_id.load(kRelaxed) ==
               frames_[frame_indices[i]].page_id.load(kRelaxed) + run) {
      ++run;
    }
    ids.resize(run);
    bufs.resize(run);
    staged = AllocatePageBuffer(run);
    // Stage each page's bytes under its exclusive latch (checksum
    // stamping mutates them and the copy needs them stable against
    // shared-latch readers), one frame at a time: the flusher never holds
    // two latches, so it cannot form a cycle with a writer that latches
    // page A while fetching page B. The copy is noise next to the write
    // syscall it feeds. WAL flush ordering: BeforePageFlush blocks until
    // the page's LSN is durable BEFORE its bytes are staged, let alone
    // handed to the device.
    for (size_t j = 0; j < run; ++j) {
      Frame& frame = frames_[frame_indices[i + j]];
      const PageId page_id = frame.page_id.load(kRelaxed);
      if (observer_ != nullptr) {
        Status s = observer_->BeforePageFlush(page_id,
                                              frame.page_lsn.load(kRelaxed));
        if (!s.ok()) {
          // Unstaged frames (this run included) simply stay dirty.
          return Status(s.code(),
                        StringPrintf("flushing page %u: %s", page_id,
                                     s.message().c_str()));
        }
      }
      {
        WriterMutexLock latch(frame.latch);
        if (page_id != 0) StampPageChecksum(frame.data.get());
        std::memcpy(staged.get() + j * kPageSize, frame.data.get(),
                    kPageSize);
      }
      ids[j] = page_id;
      bufs[j] = staged.get() + j * kPageSize;
    }

    uint64_t start_ns = NowNs();
    Status s = device_->WritePages(ids, bufs);
    stats_.write_ns.fetch_add(NowNs() - start_ns, kRelaxed);
    if (!s.ok()) {
      // A prefix of the run may have reached the device; the frames
      // stay dirty, so a later flush rewrites them — always safe.
      return Status(s.code(), StringPrintf("flushing pages %u..%u: %s",
                                           ids.front(), ids.back(),
                                           s.message().c_str()));
    }
    for (size_t j = 0; j < run; ++j) {
      frames_[frame_indices[i + j]].dirty.store(false, kRelaxed);
    }
    stats_.disk_writes.fetch_add(run, kRelaxed);
    stats_.bytes_written.fetch_add(run * kPageSize, kRelaxed);
    if (run > 1) stats_.coalesced_writes.fetch_add(run, kRelaxed);
    i += run;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Collect-and-pin under victim_mutex_, then flush without it: frame
  // latches are only ever acquired after (never under) the victim lock,
  // and the extra pin keeps each collected frame from being evicted or
  // repurposed once the lock drops.
  std::vector<size_t> dirty;
  {
    MutexLock victim_lock(victim_mutex_);
    for (size_t i = 0; i < capacity_; ++i) {
      Frame& frame = frames_[i];
      if (!frame.in_use.load(std::memory_order_acquire) ||
          !frame.dirty.load(kRelaxed)) {
        continue;
      }
      if (observer_ != nullptr &&
          !observer_->CanEvict(frame.page_id.load(kRelaxed))) {
        // Uncommitted transaction page: commit will release it; a crash
        // before then must leave the device without it (atomicity).
        continue;
      }
      frame.pin_count.fetch_add(1, kRelaxed);
      dirty.push_back(i);
    }
  }
  Status s = FlushFramesOrdered(dirty);
  // Release: pairs with the evictor's acquire pin check, so a thread that
  // re-reads an evicted page from the device sees this flush's write.
  for (size_t i : dirty) {
    frames_[i].pin_count.fetch_sub(1, std::memory_order_release);
  }
  return s;
}

Status BufferPool::EvictAll() {
  {
    MutexLock victim_lock(victim_mutex_);
    for (size_t i = 0; i < capacity_; ++i) {
      const Frame& frame = frames_[i];
      if (!frame.in_use.load(std::memory_order_acquire)) continue;
      const PageId page_id = frame.page_id.load(kRelaxed);
      if (frame.pin_count.load(kRelaxed) > 0) {
        return Status::FailedPrecondition(
            StringPrintf("page %u still pinned", page_id));
      }
      if (frame.dirty.load(kRelaxed) && observer_ != nullptr &&
          !observer_->CanEvict(page_id)) {
        return Status::FailedPrecondition(StringPrintf(
            "page %u holds uncommitted transaction writes", page_id));
      }
    }
  }
  // EvictAll's contract is quiescence (no concurrent pins or fetches —
  // the precondition scan above already depends on it), so the victim
  // lock need not be held continuously; holding it across the flush
  // would invert the frame-latch → victim_mutex_ order.
  FIELDREP_RETURN_IF_ERROR(FlushAll());
  MutexLock victim_lock(victim_mutex_);
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& frame = frames_[i];
    if (frame.in_use.load(std::memory_order_acquire)) {
      const PageId page_id = frame.page_id.load(kRelaxed);
      Shard& shard = ShardFor(page_id);
      {
        MutexLock lock(shard.mu);
        shard.table.erase(page_id);
      }
      frame.in_use.store(false, kRelaxed);
      frame.page_id.store(kInvalidPageId, kRelaxed);
      frame.referenced.store(false, kRelaxed);
      frame.prefetched.store(false, kRelaxed);
      free_frames_.push_back(i);
    }
  }
  return Status::OK();
}

const uint8_t* BufferPool::PeekPage(PageId page_id) const {
  Shard& shard = ShardFor(page_id);
  MutexLock lock(shard.mu);
  auto it = shard.table.find(page_id);
  if (it == shard.table.end() || it->second == kFrameInFlight) return nullptr;
  return frames_[it->second].data.get();
}

void BufferPool::SetPageLsn(PageId page_id, uint64_t lsn) {
  Shard& shard = ShardFor(page_id);
  MutexLock lock(shard.mu);
  auto it = shard.table.find(page_id);
  if (it == shard.table.end() || it->second == kFrameInFlight) return;
  frames_[it->second].page_lsn.store(lsn, kRelaxed);
}

std::vector<PageId> BufferPool::DirtyPageIds() const {
  MutexLock victim_lock(victim_mutex_);
  std::vector<PageId> ids;
  for (size_t i = 0; i < capacity_; ++i) {
    const Frame& frame = frames_[i];
    if (frame.in_use.load(std::memory_order_acquire) &&
        frame.dirty.load(kRelaxed)) {
      ids.push_back(frame.page_id.load(kRelaxed));
    }
  }
  return ids;
}

Status BufferPool::SyncDevice() {
  uint64_t start_ns = NowNs();
  Status s = device_->Sync();
  stats_.sync_ns.fetch_add(NowNs() - start_ns, kRelaxed);
  FIELDREP_RETURN_IF_ERROR(s);
  stats_.disk_syncs.fetch_add(1, kRelaxed);
  return Status::OK();
}

size_t BufferPool::pages_cached() const {
  size_t cached = 0;
  for (size_t i = 0; i < kShardCount; ++i) {
    MutexLock lock(shards_[i].mu);
    for (const auto& [page_id, frame_index] : shards_[i].table) {
      if (frame_index != kFrameInFlight) ++cached;
    }
  }
  return cached;
}

uint64_t BufferPool::total_pins() const {
  uint64_t total = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    total += frames_[i].pin_count.load(kRelaxed);
  }
  return total;
}

Status BufferPool::GetVictimFrame(size_t* frame_index) {
  if (!free_frames_.empty()) {
    *frame_index = free_frames_.back();
    free_frames_.pop_back();
    return Status::OK();
  }
  // Clock sweep: a frame survives one pass if its reference bit is set.
  // Two full passes guarantee we either find an unpinned victim or prove
  // every frame is pinned.
  const size_t n = capacity_;
  for (size_t step = 0; step < 2 * n; ++step) {
    eviction_scan_steps_.fetch_add(1, kRelaxed);
    Frame& frame = frames_[clock_hand_];
    size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (!frame.in_use.load(std::memory_order_acquire)) {
      continue;  // abandoned-fill limbo
    }
    if (frame.pin_count.load(kRelaxed) > 0) continue;
    // Stable while we hold victim_mutex_ (fills only reuse frames the
    // sweep handed out); the acquire load above ordered it.
    PageId victim_page = frame.page_id.load(kRelaxed);
    Shard& shard = ShardFor(victim_page);
    UniqueMutexLock lock(shard.mu);
    // Re-check under the shard lock: pins originate in the hit path, which
    // runs under this lock, so pin_count == 0 here is authoritative — and
    // implies the frame's latch is free too. Acquire pairs with the release
    // of the last unpin, ordering that holder's frame mutations and device
    // writes before this eviction's writeback and any later re-read.
    if (frame.pin_count.load(std::memory_order_acquire) > 0) continue;
    if (frame.dirty.load(kRelaxed) && observer_ != nullptr &&
        !observer_->CanEvict(victim_page)) {
      continue;  // no-steal: uncommitted pages stay resident
    }
    if (frame.referenced.load(kRelaxed)) {
      frame.referenced.store(false, kRelaxed);
      continue;
    }
    if (frame.dirty.load(kRelaxed)) {
      // Mark the entry in-flight for the duration of the writeback: a
      // concurrent fetcher must wait for the device write to finish, not
      // re-read stale bytes from the device.
      shard.table[victim_page] = kFrameInFlight;
      lock.unlock();
      Status s = WriteBackFrame(frame);
      lock.lock();
      if (!s.ok()) {
        shard.table[victim_page] = index;  // still resident, still dirty
        lock.unlock();
        shard.cv.notify_all();
        return s;
      }
    }
    shard.table.erase(victim_page);
    lock.unlock();
    shard.cv.notify_all();
    frame.in_use.store(false, kRelaxed);
    frame.page_id.store(kInvalidPageId, kRelaxed);
    frame.prefetched.store(false, kRelaxed);
    frame.page_lsn.store(0, kRelaxed);
    frame.referenced.store(false, kRelaxed);
    evictions_.fetch_add(1, kRelaxed);
    *frame_index = index;
    return Status::OK();
  }
  return Status::FailedPrecondition("all buffer frames are pinned");
}

BufferPool::ConcurrencyStats BufferPool::concurrency_stats() const {
  ConcurrencyStats out;
  out.latch_waits = latch_waits_.load(kRelaxed);
  out.single_flight_waits = single_flight_waits_.load(kRelaxed);
  out.eviction_scan_steps = eviction_scan_steps_.load(kRelaxed);
  out.evictions = evictions_.load(kRelaxed);
  return out;
}

void BufferPool::CollectMetrics(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value, std::string labels = "") {
    MetricSample s;
    s.name = name;
    s.labels = std::move(labels);
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  const IoStats io = stats();
#define FIELDREP_POOL_IO_SAMPLE(field)                                     \
  add("fieldrep_pool_" #field "_total", "Buffer pool IoStats field.",      \
      MetricKind::kCounter, static_cast<double>(io.field));
  FIELDREP_IO_STATS_FIELDS(FIELDREP_POOL_IO_SAMPLE)
#undef FIELDREP_POOL_IO_SAMPLE
  const ConcurrencyStats cs = concurrency_stats();
  add("fieldrep_pool_latch_waits_total",
      "Frame latch acquisitions that had to block.", MetricKind::kCounter,
      static_cast<double>(cs.latch_waits));
  add("fieldrep_pool_single_flight_waits_total",
      "Fetches that waited on another fetcher's in-flight device read.",
      MetricKind::kCounter, static_cast<double>(cs.single_flight_waits));
  add("fieldrep_pool_eviction_scan_steps_total",
      "Clock-hand steps examined while hunting victims.",
      MetricKind::kCounter, static_cast<double>(cs.eviction_scan_steps));
  add("fieldrep_pool_evictions_total",
      "Occupied frames reclaimed by the clock sweep.", MetricKind::kCounter,
      static_cast<double>(cs.evictions));
  add("fieldrep_pool_capacity_frames", "Total frames in the pool.",
      MetricKind::kGauge, static_cast<double>(capacity_));
  add("fieldrep_pool_pages_cached", "Resident (installed) pages.",
      MetricKind::kGauge, static_cast<double>(pages_cached()));
  add("fieldrep_pool_pinned_pages", "Sum of frame pin counts.",
      MetricKind::kGauge, static_cast<double>(total_pins()));
  add("fieldrep_pool_read_ahead_window", "Current read-ahead window.",
      MetricKind::kGauge,
      static_cast<double>(read_ahead_window_.load(kRelaxed)));
  for (size_t i = 0; i < kShardCount; ++i) {
    const uint64_t hits = shards_[i].hits.load(kRelaxed);
    const uint64_t misses = shards_[i].misses.load(kRelaxed);
    if (hits == 0 && misses == 0) continue;  // keep idle shards quiet
    std::string labels = StringPrintf("shard=\"%zu\"", i);
    add("fieldrep_pool_shard_hits_total",
        "Fetches satisfied from the cache, by page-table shard.",
        MetricKind::kCounter, static_cast<double>(hits), labels);
    add("fieldrep_pool_shard_misses_total",
        "Fetches charged a logical disk read, by page-table shard.",
        MetricKind::kCounter, static_cast<double>(misses), labels);
  }
}

void BufferPool::Unpin(size_t frame_index, LatchMode mode) {
  Frame& frame = frames_[frame_index];
  if (mode == LatchMode::kExclusive) {
    frame.latch.unlock();
  } else {
    frame.latch.unlock_shared();
  }
  assert(frame.pin_count.load(kRelaxed) > 0);
  // Release: see the acquire pin check in GetVictimFrame.
  frame.pin_count.fetch_sub(1, std::memory_order_release);
}

}  // namespace fieldrep
