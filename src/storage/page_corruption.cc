#include "storage/page_corruption.h"

#include <cstring>

#include "storage/checksum.h"
#include "storage/page.h"

namespace fieldrep {

Status CorruptByte(StorageDevice* device, PageId page_id, uint32_t offset,
                   uint8_t mask) {
  if (offset >= kPageSize) {
    return Status::InvalidArgument("corruption offset past page end");
  }
  uint8_t buf[kPageSize];
  FIELDREP_RETURN_IF_ERROR(device->ReadPage(page_id, buf));
  buf[offset] ^= mask;
  return device->WritePage(page_id, buf);
}

Status OverwriteBytes(StorageDevice* device, PageId page_id, uint32_t offset,
                      const void* bytes, uint32_t len) {
  if (offset > kPageSize || len > kPageSize - offset) {
    return Status::InvalidArgument("corruption range past page end");
  }
  uint8_t buf[kPageSize];
  FIELDREP_RETURN_IF_ERROR(device->ReadPage(page_id, buf));
  std::memcpy(buf + offset, bytes, len);
  return device->WritePage(page_id, buf);
}

Status RestampChecksum(StorageDevice* device, PageId page_id) {
  uint8_t buf[kPageSize];
  FIELDREP_RETURN_IF_ERROR(device->ReadPage(page_id, buf));
  StampPageChecksum(buf);
  return device->WritePage(page_id, buf);
}

}  // namespace fieldrep
