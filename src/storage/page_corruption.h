#ifndef FIELDREP_STORAGE_PAGE_CORRUPTION_H_
#define FIELDREP_STORAGE_PAGE_CORRUPTION_H_

#include <cstdint>

#include "common/status.h"
#include "storage/storage_device.h"

namespace fieldrep {

/// Media-corruption helpers (test support for the integrity checker).
/// Each one reads the stored image of `page_id` from `device`, modifies
/// it, and writes it back, reaching past any open database the way
/// failing media would. Callers that want the damage to *survive*
/// debug-build read verification (so a structural check above the storage
/// layer gets to see it) restamp the page checksum afterwards with
/// RestampChecksum().

/// XORs `mask` into byte `offset` of the stored image of `page_id`.
Status CorruptByte(StorageDevice* device, PageId page_id, uint32_t offset,
                   uint8_t mask);

/// Overwrites `len` bytes at `offset` of the stored image.
Status OverwriteBytes(StorageDevice* device, PageId page_id, uint32_t offset,
                      const void* bytes, uint32_t len);

/// Recomputes and stores the page checksum of `page_id`, making prior
/// corruption self-consistent (checksum-valid but structurally wrong).
Status RestampChecksum(StorageDevice* device, PageId page_id);

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_PAGE_CORRUPTION_H_
