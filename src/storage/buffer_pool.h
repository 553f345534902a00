#ifndef FIELDREP_STORAGE_BUFFER_POOL_H_
#define FIELDREP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/oid.h"
#include "storage/page.h"
#include "storage/storage_device.h"

namespace fieldrep {

class BufferPool;
struct MetricSample;

/// Default read-ahead window (pages per prefetch batch). 0 disables
/// read-ahead everywhere and restores strictly on-demand I/O.
constexpr uint32_t kDefaultReadAheadWindow = 16;

/// How a FetchPage caller intends to use the page. Shared fetches take the
/// frame's reader latch and MUST NOT mutate the page (MarkDirty asserts);
/// exclusive fetches take the writer latch. The default is kExclusive so
/// the pre-concurrency call sites keep their semantics; read-only hot
/// paths opt into kShared explicitly.
enum class LatchMode { kShared, kExclusive };

/// \brief Hook interface through which a write-ahead log observes and
/// constrains the buffer pool (see src/wal/wal_manager.h).
///
/// The pool calls these at well-defined points so that the WAL can
/// capture page pre-images, track transaction write sets, veto eviction
/// of uncommitted pages (no-steal policy), and enforce the WAL flush
/// ordering: no dirty page reaches the device before the log records
/// covering it are durable.
///
/// Concurrency contract (single-writer / multi-reader engine):
///   - OnPageAccess fires only for kExclusive fetches, i.e. only on the
///     (single) writer thread — readers never need pre-images.
///   - OnPageDirtied likewise fires only from the writer.
///   - CanEvict and BeforePageFlush may be called from any thread (reader
///     misses evict too) and must synchronize internally.
class PageObserver {
 public:
  virtual ~PageObserver() = default;

  /// A page's bytes became visible through an exclusive fetch (hit or
  /// miss, or a freshly allocated zero page). `data` is the frame content
  /// before the caller mutates it.
  virtual void OnPageAccess(PageId page_id, const uint8_t* data) = 0;

  /// A guard marked the page dirty.
  virtual void OnPageDirtied(PageId page_id) = 0;

  /// May this dirty page be written back and evicted? False while an
  /// active transaction's uncommitted bytes are on it.
  virtual bool CanEvict(PageId page_id) const = 0;

  /// Called immediately before the pool writes a dirty page to the
  /// device. `page_lsn` is the log position that must be durable first;
  /// the observer blocks until it is (WAL rule).
  virtual Status BeforePageFlush(PageId page_id, uint64_t page_lsn) = 0;
};

/// \brief RAII pin + latch on a buffered page.
///
/// While a PageGuard is alive the frame cannot be evicted and the page's
/// latch is held in the guard's LatchMode. Call MarkDirty() after mutating
/// data() (exclusive guards only); the pool writes dirty frames back on
/// eviction or FlushAll(). Guards are movable but not copyable; moves
/// leave the source guard inert (valid() == false), and debug builds
/// assert on use-after-move, use-after-release, and double-release.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_index, LatchMode mode);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  uint8_t* data();
  const uint8_t* data() const;
  PageId page_id() const;
  LatchMode mode() const { return mode_; }
  void MarkDirty();

  /// Releases the latch and pin early. Must not be called twice, nor on a
  /// moved-from guard (debug-asserted); the destructor is always safe.
  void Release();

 private:
  /// Destructor / move-assignment path: releases if held, never asserts.
  void ReleaseInternal();

  BufferPool* pool_ = nullptr;
  size_t frame_index_ = 0;
  LatchMode mode_ = LatchMode::kExclusive;
#ifndef NDEBUG
  enum class DebugState { kEmpty, kActive, kReleased, kMoved };
  DebugState debug_state_ = DebugState::kEmpty;
#endif
};

/// \brief Fixed-capacity page cache over a StorageDevice with clock
/// eviction, pin counting, I/O statistics, batched read-ahead, and
/// elevator (PageId-ordered, run-coalesced) write-back.
///
/// The buffer pool is the engine's single point of I/O accounting: every
/// structure (heap files, B+ trees, link sets, replica sets) accesses pages
/// through it, so `stats().disk_reads/disk_writes` measure exactly the
/// quantity the paper's cost model predicts. Benchmarks call
/// EvictAll() + ResetStats() before each query to measure it cold.
///
/// Read-ahead accounting rule: Prefetch() performs *physical* reads
/// (counted as `batched_reads`/`bytes_read`) and installs the pages
/// unpinned and uncharged; the first FetchPage of a prefetched page charges
/// one `disk_reads` (not a `hits`), and a prefetched page that is never
/// fetched is never charged. Logical counters are therefore byte-identical
/// with read-ahead on or off.
///
/// Thread safety (DESIGN.md §10): the page table is sharded (power-of-two
/// shard count, one mutex + condvar each), every frame carries a
/// shared_mutex latch and an atomic pin count, and the I/O counters are
/// atomics. Page installation is single-flight: a miss publishes an
/// in-flight marker in its shard before reading the device, so concurrent
/// fetchers of the same page wait on the shard condvar instead of reading
/// twice — which also keeps the logical counters (one disk_read, k hits)
/// interleaving-invariant. Eviction and free-frame bookkeeping are
/// serialized by a single victim mutex; an evicting thread never takes a
/// frame latch (a pin count of zero, verified under the shard lock,
/// implies the latch is free), so the lock order is always
/// frame-latch -> victim -> shard and never cycles.
class BufferPool {
 public:
  /// \param device   backing store (not owned unless passed via TakeDevice).
  /// \param capacity number of frames. Must be >= 1.
  BufferPool(StorageDevice* device, size_t capacity);

  /// Convenience constructor taking ownership of the device.
  BufferPool(std::unique_ptr<StorageDevice> device, size_t capacity);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins and latches page `page_id`, reading it from the device on a
  /// miss. kShared fetches never fire OnPageAccess (readers need no WAL
  /// pre-image) and must not MarkDirty.
  Status FetchPage(PageId page_id, PageGuard* guard,
                   LatchMode mode = LatchMode::kExclusive);

  /// Allocates a fresh zeroed page on the device and pins it (exclusive).
  Status NewPage(PageGuard* guard);

  /// Batch-reads the non-resident pages of `page_ids` into victim frames
  /// through the device's vectored read path, leaving them unpinned and
  /// logically uncharged (see the accounting rule above). A scheduling
  /// hint, not a correctness operation:
  ///   - no-op when the read-ahead window is 0;
  ///   - ids that are resident, in flight, duplicated, or unallocated are
  ///     skipped;
  ///   - victim selection honours the observer's no-steal veto and flushes
  ///     dirty victims through the normal BeforePageFlush path;
  ///   - if every frame is pinned the remainder of the batch is dropped;
  ///   - with checksum verification enabled (see set_verify_checksums),
  ///     pages failing it are not installed (the next FetchPage re-reads
  ///     them through the on-demand path).
  /// Device errors (e.g. a crashed fault-injection device) propagate,
  /// and then none of the batch is installed.
  Status Prefetch(std::span<const PageId> page_ids);

  /// Prefetches the distinct pages addressed by `oids` (in sorted page
  /// order). Convenience wrapper over Prefetch for OID-batch hot paths.
  Status PrefetchOidPages(std::span<const Oid> oids);

  /// Writes all dirty frames back to the device (without unpinning), in
  /// ascending PageId order with contiguous runs coalesced into vectored
  /// writes (elevator write-back). Frames the observer protects
  /// (uncommitted transaction pages) are skipped: their fate is decided by
  /// commit or crash, not by a flush.
  Status FlushAll();

  /// Flushes and then drops every unpinned frame, so the next access to any
  /// page performs a device read. Fails if any page is still pinned — the
  /// benchmarks rely on a fully cold cache. On flush failure the returned
  /// Status names the page that failed.
  Status EvictAll();

  /// Snapshot of the I/O counters. Exact when the pool is quiesced (the
  /// only way measurements use it); monotone mid-flight.
  IoStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Concurrency-behaviour counters (always on; relaxed atomics like the
  /// I/O stats). Purely observational: none of them feed back into any
  /// replacement or scheduling decision.
  struct ConcurrencyStats {
    uint64_t latch_waits = 0;         ///< Latch acquisitions that blocked.
    uint64_t single_flight_waits = 0; ///< Fetches that waited on another
                                      ///< fetcher's in-flight device read.
    uint64_t eviction_scan_steps = 0; ///< Clock-hand steps examined.
    uint64_t evictions = 0;           ///< Occupied frames reclaimed.
  };
  ConcurrencyStats concurrency_stats() const;

  /// Appends this pool's metric samples (logical/physical I/O counters,
  /// per-shard hit/miss, latch and eviction behaviour, cache gauges) to
  /// `out` — the registry-collector hook Database installs.
  void CollectMetrics(std::vector<MetricSample>* out) const;

  /// Read-ahead window: the number of pages scan hot paths prefetch ahead
  /// of the cursor. 0 disables read-ahead (every Prefetch call becomes a
  /// no-op), restoring strictly on-demand I/O.
  void set_read_ahead_window(uint32_t window) { read_ahead_window_ = window; }
  uint32_t read_ahead_window() const { return read_ahead_window_; }

  /// Checksum verification on the read paths (on-demand misses and
  /// prefetch batches). Defaults to on in debug builds and off in release
  /// — the policy FetchPage has always had; tests flip it on explicitly.
  /// A failing on-demand read returns Corruption; a failing batch-read
  /// page is silently not installed (the on-demand retry reports it).
  void set_verify_checksums(bool verify) { verify_checksums_ = verify; }
  bool verify_checksums() const { return verify_checksums_; }

  size_t capacity() const { return capacity_; }
  /// Number of frames currently holding a page.
  size_t pages_cached() const;
  /// Total pins across all frames (for leak checks in tests; exact only
  /// when quiesced).
  uint64_t total_pins() const;

  StorageDevice* device() { return device_; }

  /// Attaches (or detaches, with nullptr) the WAL observer. The observer
  /// must outlive the pool or be detached before destruction. Not
  /// thread-safe: call while the pool is idle.
  void SetObserver(PageObserver* observer) { observer_ = observer; }

  /// Frame bytes of `page_id` if resident, else nullptr. No pin, no
  /// statistics — used by the WAL to diff pages at commit. The returned
  /// pointer is stable only while the page cannot be evicted (the WAL's
  /// no-steal veto guarantees that for transaction pages).
  const uint8_t* PeekPage(PageId page_id) const;

  /// Sets the recovery LSN the flush-ordering hook reports for the page
  /// (no-op if the page is not resident).
  void SetPageLsn(PageId page_id, uint64_t lsn);

  /// Page ids of all dirty frames — the dirty-frame table a checkpoint
  /// walks.
  std::vector<PageId> DirtyPageIds() const;

  /// Issues a device Sync (fsync), counted in stats as a disk_sync.
  Status SyncDevice();

 private:
  friend class PageGuard;

  struct Frame {
    PageBuffer data;
    /// Reader/writer latch. Acquired after the pin (never while holding a
    /// shard or victim lock); pin_count > 0 keeps the Frame itself stable.
    /// kFrameLatch is a same-rank-ok rank: multi-page appends
    /// legitimately hold several latches at once.
    SharedMutex latch{LockRank::kFrameLatch, "pool.frame.latch"};
    std::atomic<uint32_t> pin_count{0};
    std::atomic<uint64_t> page_lsn{0};  ///< Durability horizon for flushes.
    std::atomic<bool> dirty{false};
    std::atomic<bool> referenced{false};  // clock bit
    /// Fill paths store it with release order after page_id (below) so a
    /// pool walk that loads it with acquire order reads the matching id.
    std::atomic<bool> in_use{false};
    /// Installed by Prefetch and not yet logically charged: the first
    /// FetchPage counts it as a disk_read instead of a hit.
    std::atomic<bool> prefetched{false};
    /// Written while the frame is unreachable (under victim_mutex_ before
    /// table publication, or marked in-flight in its shard) — but read by
    /// whole-pool walks that only observe `in_use`, so it is atomic and
    /// publication is the release-store of `in_use` above.
    std::atomic<PageId> page_id{kInvalidPageId};
  };

  /// One page-table shard: page id -> frame index, or kFrameInFlight for
  /// a page whose device read (miss) or writeback (dirty eviction) is in
  /// progress. Fetchers of an in-flight page wait on `cv`.
  struct Shard {
    mutable Mutex mu{LockRank::kPoolShard, "pool.shard.mu"};
    CondVar cv;
    std::unordered_map<PageId, size_t> table GUARDED_BY(mu);
    /// Per-shard logical cache behaviour: `hits` counts fetches satisfied
    /// from the cache, `misses` fetches charged a logical disk_read
    /// (on-demand miss or first touch of a prefetched page). Together they
    /// partition stats_.fetches by page-table shard.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  static constexpr size_t kShardCount = 64;  // power of two
  static constexpr size_t kFrameInFlight = static_cast<size_t>(-1);

  Shard& ShardFor(PageId page_id) const {
    return shards_[page_id & (kShardCount - 1)];
  }

  /// Acquires `frame`'s latch in `mode`, counting acquisitions that had
  /// to block in latch_waits_ (uncontended try_lock first, so the common
  /// case costs one extra CAS at most). The acquisition outlives this
  /// function (the matching release is Unpin via ~PageGuard), which the
  /// static analysis cannot follow.
  void LatchFrame(Frame& frame, LatchMode mode) NO_THREAD_SAFETY_ANALYSIS;

  /// Flush-ordering + writeback of one frame's bytes. The caller must
  /// guarantee the bytes are stable (frame unreachable + unpinned, or
  /// exclusive latch held).
  Status WriteBackFrame(Frame& frame);

  /// Elevator write-back of the given dirty frames: sorts by PageId,
  /// honours BeforePageFlush per page, stamps checksums, and coalesces
  /// contiguous runs into vectored device writes. Takes each frame's
  /// exclusive latch around stamping + staging so concurrent readers
  /// never observe checksum bytes mid-update. On failure the Status
  /// names the pages that could not be written; failed frames stay dirty
  /// (a prefix may have reached the device — rewriting later is safe).
  /// Called with no pool lock held (the caller pins the frames instead):
  /// taking a frame latch under victim_mutex_ would invert the
  /// frame-latch → victim order.
  Status FlushFramesOrdered(std::vector<size_t> frame_indices)
      EXCLUDES(victim_mutex_);

  /// Finds a victim frame via the clock algorithm, writing it back if
  /// dirty, and removes it from the page table. Returns FailedPrecondition
  /// if every frame is pinned. The returned frame is unreachable but has
  /// pin_count 0 — callers that release victim_mutex_ before installing
  /// must set pin_count first so a concurrent sweep cannot hand the frame
  /// out again.
  Status GetVictimFrame(size_t* frame_index) REQUIRES(victim_mutex_);

  /// Returns a claimed-but-uninstalled frame to the free list and erases
  /// the page's in-flight marker, waking waiters to retry.
  void AbandonFill(PageId page_id, size_t frame_index);

  /// Releases the latch taken by LatchFrame and drops the pin (the
  /// acquisition happened in FetchPage/NewPage, so this is the unbalanced
  /// other half the analysis cannot follow).
  void Unpin(size_t frame_index, LatchMode mode) NO_THREAD_SAFETY_ANALYSIS;

  StorageDevice* device_;
  std::unique_ptr<StorageDevice> owned_device_;
  std::unique_ptr<Frame[]> frames_;
  size_t capacity_ = 0;
  mutable std::unique_ptr<Shard[]> shards_;
  /// Serializes victim selection, the free list, the clock hand, and the
  /// whole-pool walks (FlushAll / EvictAll / DirtyPageIds). Lock order
  /// (enforced by LockRank): victim_mutex_ before shard mutexes; frame
  /// latches before either; never the reverse.
  mutable Mutex victim_mutex_{LockRank::kPoolVictim, "pool.victim_mu"};
  std::vector<size_t> free_frames_ GUARDED_BY(victim_mutex_);
  size_t clock_hand_ GUARDED_BY(victim_mutex_) = 0;
  mutable AtomicIoStats stats_;
  /// See ConcurrencyStats.
  std::atomic<uint64_t> latch_waits_{0};
  std::atomic<uint64_t> single_flight_waits_{0};
  std::atomic<uint64_t> eviction_scan_steps_{0};
  std::atomic<uint64_t> evictions_{0};
  PageObserver* observer_ = nullptr;
  std::atomic<uint32_t> read_ahead_window_{kDefaultReadAheadWindow};
#ifndef NDEBUG
  std::atomic<bool> verify_checksums_{true};
#else
  std::atomic<bool> verify_checksums_{false};
#endif
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_BUFFER_POOL_H_
