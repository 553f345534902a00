#ifndef FIELDREP_STORAGE_FILE_DEVICE_H_
#define FIELDREP_STORAGE_FILE_DEVICE_H_

#include <atomic>
#include <string>

#include "common/annotated_mutex.h"
#include "storage/storage_device.h"

namespace fieldrep {

/// \brief Storage device backed by a single operating-system file.
///
/// Page `i` lives at byte offset `i * kPageSize`. The device performs no
/// caching of its own — all caching (and all I/O accounting) happens in the
/// BufferPool above it.
class FileDevice : public StorageDevice {
 public:
  /// Creates a closed device; call Open() before use.
  FileDevice() = default;
  ~FileDevice() override;

  FileDevice(const FileDevice&) = delete;
  FileDevice& operator=(const FileDevice&) = delete;

  /// Opens (creating if necessary) the backing file. If the file already
  /// exists its page count is recovered from its size.
  Status Open(const std::string& path);

  /// Flushes and closes the backing file. Safe to call twice.
  Status Close();

  bool is_open() const { return fd_ >= 0; }

  Status ReadPage(PageId page_id, void* buf) override;
  Status WritePage(PageId page_id, const void* buf) override;
  /// Coalesces contiguous page-id runs into preadv calls.
  Status ReadPages(std::span<const PageId> page_ids,
                   std::span<uint8_t* const> bufs) override;
  /// Coalesces contiguous page-id runs into pwritev calls.
  Status WritePages(std::span<const PageId> page_ids,
                    std::span<const uint8_t* const> bufs) override;
  Status AllocatePage(PageId* page_id) override;
  /// fdatasync on the backing file.
  Status Sync() override;
  uint32_t page_count() const override {
    return page_count_.load(std::memory_order_relaxed);
  }

 private:
  int fd_ = -1;
  /// Serializes AllocatePage: writers on disjoint sets extend the file
  /// concurrently, and each must claim its own page id. kDevice is a leaf
  /// rank, as for MemoryDevice.
  Mutex alloc_mu_{LockRank::kDevice, "file_device.alloc_mu"};
  /// Atomic: reader threads bounds-check against it (pread/pwrite are
  /// themselves thread-safe) while a writer extends the file.
  std::atomic<uint32_t> page_count_{0};
  std::string path_;
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_FILE_DEVICE_H_
