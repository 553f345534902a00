#ifndef FIELDREP_STORAGE_PAGE_H_
#define FIELDREP_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

namespace fieldrep {

/// \file
/// Page-level constants. The sizes follow the paper's Figure 10, which took
/// them from the EXODUS storage manager: 4 KiB pages with B = 4056 bytes
/// available for user data and h = 20 bytes of per-object storage overhead.

/// Physical page size of every storage device.
inline constexpr uint32_t kPageSize = 4096;

/// Bytes reserved at the front of each page for the page header
/// (see SlottedPage). kPageSize - kPageHeaderBytes == 4056 == the paper's B.
inline constexpr uint32_t kPageHeaderBytes = 40;

/// Offset of the per-page CRC-32 checksum inside the page header. The field
/// is shared by every headered page type (heap, B+ tree, meta): the 40-byte
/// header budget reserves bytes [36, 40) for it. A stored value of zero
/// means "not yet stamped" (pages are checksummed when written back to the
/// device, so a freshly formatted in-memory page carries no checksum).
inline constexpr uint32_t kPageChecksumOffset = 36;

/// The paper's B: bytes per page available for user data (slots + records).
inline constexpr uint32_t kUserBytesPerPage = kPageSize - kPageHeaderBytes;

/// The paper's h: storage overhead per object. In this engine it is the
/// 4-byte slot-directory entry plus the 16-byte serialized object header.
inline constexpr uint32_t kObjectOverheadBytes = 20;

/// Identifies a page on a storage device. Page ids are device-global;
/// files are linked lists of pages.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Identifies a file (an object set, link set, replica set, index, or
/// output file) within a database.
using FileId = uint16_t;

inline constexpr FileId kInvalidFileId = 0xFFFFu;

/// Deleter matching AllocatePageBuffer's aligned operator new[].
struct PageBufferDeleter {
  void operator()(uint8_t* p) const {
    ::operator delete[](p, std::align_val_t{kPageSize});
  }
};

/// A page-sized, page-aligned I/O buffer: buffer-pool frames and elevator
/// staging areas.
using PageBuffer = std::unique_ptr<uint8_t[], PageBufferDeleter>;

/// Allocates `pages` pages of kPageSize-aligned, zero-initialized memory.
/// The zeroing matters: a logically-empty page region must read as zeros
/// (slot directories treat 0 as "no entry"), and frames are recycled into
/// that role without an intervening device read.
inline PageBuffer AllocatePageBuffer(size_t pages = 1) {
  auto* p = static_cast<uint8_t*>(
      ::operator new[](pages * kPageSize, std::align_val_t{kPageSize}));
  std::memset(p, 0, pages * kPageSize);
  return PageBuffer(p);
}

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_PAGE_H_
