#ifndef FIELDREP_CHECK_INTEGRITY_CHECKER_H_
#define FIELDREP_CHECK_INTEGRITY_CHECKER_H_

#include <string>

#include "check/check_report.h"
#include "common/status.h"

namespace fieldrep {

class Database;
class RecordFile;
class StorageDevice;

/// \brief Offline structural-invariant checker (the engine of
/// fieldrep_fsck and Database::CheckIntegrity).
///
/// Verifies an open database bottom-up, each layer assuming the ones below
/// it so a single corruption is reported where it lives:
///
///   1. storage      page headers, slot directories, free-space accounting,
///                   record-file page linkage, relocation stub pairing, and
///                   per-page checksums (read straight from the device);
///   2. index        B+ tree ordering/fanout plus an entry <-> object
///                   cross-check in both directions;
///   3. catalog      type/set/path/index definitions resolve; every stored
///                   object matches its set's type, its references resolve,
///                   and its hidden section names registered links/paths;
///   4. replication  for every `replicate` path the forward references and
///                   the inverted path are exact mirrors: replica values
///                   equal the terminal fields, link objects point both
///                   ways, S' records are owned, shared, refcounted, and
///                   S-ordered (the paper's Sections 4.1-4.3 and 5);
///   5. wal          log header/epoch sanity and record-stream structure.
///
/// The checker is read-only: it never repairs, and reports rather than
/// fails — broken structures become CheckFinding entries and checking
/// continues (up to CheckOptions::max_findings). The returned Status is
/// non-OK only when the checker itself cannot run.
class IntegrityChecker {
 public:
  IntegrityChecker(Database* db, const CheckOptions& options);

  /// Runs all enabled layers, appending to `report`.
  Status Run(CheckReport* report);

  /// Structural scan of a standalone log device (no database required):
  /// header validity, epoch, record-stream well-formedness, transaction
  /// bracket pairing. Used for layer 5 and by fieldrep_fsck on the `.wal`
  /// file.
  static void CheckWalDevice(StorageDevice* device, bool include_info,
                             CheckReport* report);

 private:
  void CheckStorage();
  void CheckRecordFile(const RecordFile& file, const std::string& context);
  void CheckDeviceChecksums();
  void CheckIndexes();
  void CheckCatalog();
  void CheckObjects(const std::string& set_name);
  void CheckReplication();
  void CheckLinkSets();
  void CheckReplicaSets();
  void CheckWal();

  /// True once the report hit CheckOptions::max_findings; layers bail out.
  bool Full() const;

  Database* db_;
  CheckOptions options_;
  CheckReport* report_ = nullptr;
};

}  // namespace fieldrep

#endif  // FIELDREP_CHECK_INTEGRITY_CHECKER_H_
