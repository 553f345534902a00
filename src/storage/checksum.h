#ifndef FIELDREP_STORAGE_CHECKSUM_H_
#define FIELDREP_STORAGE_CHECKSUM_H_

#include <cstdint>

#include "storage/page.h"

namespace fieldrep {

/// \file
/// Per-page checksums (introduced with on-disk format v2, magic
/// "FREP0002").
///
/// Every headered page (heap, B+ tree, meta — see PageType) reserves bytes
/// [kPageChecksumOffset, kPageChecksumOffset + 4) of its 40-byte header for
/// a CRC-32 over the rest of the page. The checksum is stamped by the
/// buffer pool when a frame is written back to its device and by crash
/// recovery after replaying WAL deltas onto a page; it is verified on every
/// buffer-pool read miss in debug builds and unconditionally by the
/// integrity checker (src/check).
///
/// A stored value of zero means "not stamped": freshly formatted pages and
/// pages written by pre-v2 databases carry no checksum and verify as clean.
/// Page 0 is the database header page (magic-prefixed blob, no page
/// header) and is never checksummed.

/// True if the page's type field marks it as a headered, checksummed page
/// type. Free pages and raw blob pages are not checksummed.
bool PageIsChecksummed(const uint8_t* page);

/// CRC-32 of the page contents excluding the checksum field itself,
/// mapped away from zero (a computed 0 is stored as 1) so that zero can
/// mean "not stamped".
uint32_t ComputePageChecksum(const uint8_t* page);

/// Writes ComputePageChecksum(page) into the header checksum field if the
/// page is of a checksummed type; otherwise does nothing.
void StampPageChecksum(uint8_t* page);

/// True if the page is not of a checksummed type, carries no checksum
/// (stored value 0), or the stored checksum matches the page contents.
bool VerifyPageChecksum(const uint8_t* page);

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_CHECKSUM_H_
