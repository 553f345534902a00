#ifndef FIELDREP_STORAGE_STORAGE_DEVICE_H_
#define FIELDREP_STORAGE_STORAGE_DEVICE_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "storage/page.h"

namespace fieldrep {

/// \brief Abstraction over the backing store: a flat, growable array of
/// 4 KiB pages.
///
/// Two implementations are provided: MemoryDevice (the default; the paper's
/// evaluation is analytic, so a RAM-backed "disk" with exact I/O accounting
/// at the buffer pool reproduces its cost quantity) and FileDevice (a real
/// file, for durability within a session and for exercising the same code
/// path against the OS).
///
/// Thread-safety contract the buffer pool relies on: worker threads issue
/// concurrent reads and writes (a reader's miss may evict and write back
/// a dirty victim), but never two concurrent transfers of the same page —
/// the pool's single-flight in-flight markers serialize those. Writers on
/// disjoint sets may call AllocatePage at the same time, each needing its
/// own page id, and page_count() may be read at any moment. FileDevice
/// meets this with positional pread/pwrite, an atomic page count and an
/// allocation mutex; MemoryDevice with its internal mutex.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Reads page `page_id` into `buf` (kPageSize bytes).
  virtual Status ReadPage(PageId page_id, void* buf) = 0;

  /// Writes kPageSize bytes from `buf` to page `page_id`.
  virtual Status WritePage(PageId page_id, const void* buf) = 0;

  /// Vectored read: fills `bufs[i]` (kPageSize bytes each) with page
  /// `page_ids[i]`. The default implementation issues one ReadPage per
  /// page, so decorators (fault injection, corruption) keep their per-page
  /// semantics; FileDevice overrides it to coalesce contiguous runs into
  /// preadv. On error, the contents of `bufs` are unspecified — callers
  /// must not install any of the pages.
  virtual Status ReadPages(std::span<const PageId> page_ids,
                           std::span<uint8_t* const> bufs) {
    for (size_t i = 0; i < page_ids.size(); ++i) {
      FIELDREP_RETURN_IF_ERROR(ReadPage(page_ids[i], bufs[i]));
    }
    return Status::OK();
  }

  /// Vectored write: writes `bufs[i]` to page `page_ids[i]`. The default
  /// implementation issues one WritePage per page (preserving decorator
  /// fault semantics — a simulated crash can land between any two pages of
  /// a batch); FileDevice coalesces contiguous runs into pwritev. On
  /// error, a prefix of the batch may have reached the device.
  virtual Status WritePages(std::span<const PageId> page_ids,
                            std::span<const uint8_t* const> bufs) {
    for (size_t i = 0; i < page_ids.size(); ++i) {
      FIELDREP_RETURN_IF_ERROR(WritePage(page_ids[i], bufs[i]));
    }
    return Status::OK();
  }

  /// Extends the device by one zeroed page and returns its id.
  virtual Status AllocatePage(PageId* page_id) = 0;

  /// Forces previously written pages to stable storage (fsync). The
  /// write-ahead log calls this to make log records durable before the
  /// pages they describe; counted as `disk_syncs` in IoStats when issued
  /// through the buffer pool. Default: no-op (a MemoryDevice is "stable"
  /// the moment WritePage returns).
  virtual Status Sync() { return Status::OK(); }

  /// Number of pages allocated so far.
  virtual uint32_t page_count() const = 0;
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_STORAGE_DEVICE_H_
