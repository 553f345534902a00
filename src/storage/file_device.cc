#include "storage/file_device.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/strings.h"

namespace fieldrep {

namespace {
// Pages per vectored syscall. Linux IOV_MAX is 1024; a 256-page (1 MiB)
// batch already amortizes the syscall without building huge iovec arrays.
constexpr size_t kMaxIovPages = 256;
}  // namespace

FileDevice::~FileDevice() { Close().ok(); }

Status FileDevice::Open(const std::string& path) {
  if (is_open()) {
    return Status::FailedPrecondition("device already open: " + path_);
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError(
        StringPrintf("open(%s): %s", path.c_str(), std::strerror(errno)));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError(
        StringPrintf("lseek(%s): %s", path.c_str(), std::strerror(errno)));
  }
  fd_ = fd;
  path_ = path;
  page_count_.store(static_cast<uint32_t>(size / kPageSize),
                    std::memory_order_relaxed);
  return Status::OK();
}

Status FileDevice::Close() {
  if (!is_open()) return Status::OK();
  int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    return Status::IOError(
        StringPrintf("close(%s): %s", path_.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

Status FileDevice::ReadPage(PageId page_id, void* buf) {
  if (page_id >= page_count()) {
    return Status::OutOfRange(
        StringPrintf("read of unallocated page %u", page_id));
  }
  ssize_t n = ::pread(fd_, buf, kPageSize,
                      static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(StringPrintf("pread page %u: %s", page_id,
                                        n < 0 ? std::strerror(errno)
                                              : "short read"));
  }
  return Status::OK();
}

Status FileDevice::WritePage(PageId page_id, const void* buf) {
  if (page_id >= page_count()) {
    return Status::OutOfRange(
        StringPrintf("write of unallocated page %u", page_id));
  }
  ssize_t n = ::pwrite(fd_, buf, kPageSize,
                       static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(StringPrintf("pwrite page %u: %s", page_id,
                                        n < 0 ? std::strerror(errno)
                                              : "short write"));
  }
  return Status::OK();
}

Status FileDevice::ReadPages(std::span<const PageId> page_ids,
                             std::span<uint8_t* const> bufs) {
  size_t i = 0;
  while (i < page_ids.size()) {
    // Maximal contiguous run starting at i (capped per syscall).
    size_t run = 1;
    while (i + run < page_ids.size() && run < kMaxIovPages &&
           page_ids[i + run] == page_ids[i] + run) {
      ++run;
    }
    if (run == 1) {
      FIELDREP_RETURN_IF_ERROR(ReadPage(page_ids[i], bufs[i]));
      ++i;
      continue;
    }
    if (page_ids[i] + run > page_count()) {
      return Status::OutOfRange(
          StringPrintf("vectored read past page %u", page_count()));
    }
    std::vector<struct iovec> iov(run);
    for (size_t j = 0; j < run; ++j) {
      iov[j].iov_base = bufs[i + j];
      iov[j].iov_len = kPageSize;
    }
    size_t done = 0;
    const size_t total = run * kPageSize;
    off_t base = static_cast<off_t>(page_ids[i]) * kPageSize;
    while (done < total) {
      // Resume after a short transfer: skip fully-read iovecs and trim
      // the partially-read one.
      size_t skip = done / kPageSize;
      size_t within = done % kPageSize;
      iov[skip].iov_base = bufs[i + skip] + within;
      iov[skip].iov_len = kPageSize - within;
      ssize_t n = ::preadv(fd_, iov.data() + skip,
                           static_cast<int>(run - skip),
                           base + static_cast<off_t>(done));
      if (n <= 0) {
        return Status::IOError(StringPrintf(
            "preadv at page %u: %s", page_ids[i] + static_cast<PageId>(skip),
            n < 0 ? std::strerror(errno) : "short read"));
      }
      iov[skip].iov_base = bufs[i + skip];
      iov[skip].iov_len = kPageSize;
      done += static_cast<size_t>(n);
    }
    i += run;
  }
  return Status::OK();
}

Status FileDevice::WritePages(std::span<const PageId> page_ids,
                              std::span<const uint8_t* const> bufs) {
  size_t i = 0;
  while (i < page_ids.size()) {
    size_t run = 1;
    while (i + run < page_ids.size() && run < kMaxIovPages &&
           page_ids[i + run] == page_ids[i] + run) {
      ++run;
    }
    if (run == 1) {
      FIELDREP_RETURN_IF_ERROR(WritePage(page_ids[i], bufs[i]));
      ++i;
      continue;
    }
    if (page_ids[i] + run > page_count()) {
      return Status::OutOfRange(
          StringPrintf("vectored write past page %u", page_count()));
    }
    std::vector<struct iovec> iov(run);
    for (size_t j = 0; j < run; ++j) {
      iov[j].iov_base = const_cast<uint8_t*>(bufs[i + j]);
      iov[j].iov_len = kPageSize;
    }
    size_t done = 0;
    const size_t total = run * kPageSize;
    off_t base = static_cast<off_t>(page_ids[i]) * kPageSize;
    while (done < total) {
      size_t skip = done / kPageSize;
      size_t within = done % kPageSize;
      iov[skip].iov_base = const_cast<uint8_t*>(bufs[i + skip]) + within;
      iov[skip].iov_len = kPageSize - within;
      ssize_t n = ::pwritev(fd_, iov.data() + skip,
                            static_cast<int>(run - skip),
                            base + static_cast<off_t>(done));
      if (n <= 0) {
        return Status::IOError(StringPrintf(
            "pwritev at page %u: %s", page_ids[i] + static_cast<PageId>(skip),
            n < 0 ? std::strerror(errno) : "short write"));
      }
      iov[skip].iov_base = const_cast<uint8_t*>(bufs[i + skip]);
      iov[skip].iov_len = kPageSize;
      done += static_cast<size_t>(n);
    }
    i += run;
  }
  return Status::OK();
}

Status FileDevice::Sync() {
  if (!is_open()) return Status::FailedPrecondition("device not open");
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(StringPrintf("fdatasync(%s): %s", path_.c_str(),
                                        std::strerror(errno)));
  }
  return Status::OK();
}

Status FileDevice::AllocatePage(PageId* page_id) {
  if (!is_open()) return Status::FailedPrecondition("device not open");
  char zeros[kPageSize];
  std::memset(zeros, 0, sizeof(zeros));
  MutexLock lock(alloc_mu_);
  PageId id = page_count();
  ssize_t n =
      ::pwrite(fd_, zeros, kPageSize, static_cast<off_t>(id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(StringPrintf("extend to page %u: %s", id,
                                        n < 0 ? std::strerror(errno)
                                              : "short write"));
  }
  page_count_.store(id + 1, std::memory_order_relaxed);
  *page_id = id;
  return Status::OK();
}

}  // namespace fieldrep
