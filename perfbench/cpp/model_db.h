// The §6 model schema the benchmark runs on:
//
//   define type STYPE ( field_s: int, repfield: char[20], filler: char[176] )
//   define type RTYPE ( field_r: int, sref: ref STYPE, filler: char[88] )
//   create R: {own ref RTYPE}; create S: {own ref STYPE}
//   replicate R.sref.repfield        (in place)
//   build btree on R.field_r and S.field_s (unclustered)
//
// Field bytes match the model's r = 100 and s = 200. Every S object is
// referenced by exactly f R objects, placed at random (R and S relatively
// unclustered, the model's §6.2 assumption).
#ifndef FIELDREP_PERFBENCH_MODEL_DB_H_
#define FIELDREP_PERFBENCH_MODEL_DB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "db/database.h"

namespace perfbench {

constexpr uint32_t kTargetR = 100;
constexpr uint32_t kTargetS = 200;
constexpr uint32_t kRFiller = kTargetR - 4 - 8;
constexpr uint32_t kSFiller = kTargetS - 4 - 20;
constexpr uint32_t kRepfieldBytes = 20;

struct ModelShape {
  uint32_t s_count = 0;  ///< |S|
  uint32_t f = 5;        ///< |R| = f * |S|
};

/// What the benchmark keeps about a built database: OIDs and keys, so it
/// can draw operations and check answers.
struct ModelData {
  std::vector<fieldrep::Oid> r_oids;
  std::vector<fieldrep::Oid> s_oids;
  std::vector<int32_t> r_keys;  ///< field_r of r_oids[i]
  std::vector<int32_t> s_keys;  ///< field_s of s_oids[i]
  /// Hidden bytes replication added to R and S objects (model k and
  /// terminal overhead), measured on the built objects.
  double head_bytes = 0;
  double terminal_bytes = 0;
};

/// The initial repfield value of the S object with key `key`.
std::string InitialRepfield(int32_t key);

/// Populates an open, empty database with the model schema and replicates
/// R.sref.repfield in place.
fieldrep::Status BuildModelDatabase(fieldrep::Database* db,
                                    const ModelShape& shape, uint64_t seed,
                                    ModelData* data);

/// Cost-model parameters for the built database (in-place strategy).
fieldrep::CostModelParams ModelParams(const ModelShape& shape,
                                      const ModelData& data, double fr,
                                      double fs);

}  // namespace perfbench

#endif  // FIELDREP_PERFBENCH_MODEL_DB_H_
