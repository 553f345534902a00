#include "model_db.h"

#include <cstdio>

#include "common/random.h"

namespace perfbench {

using fieldrep::Database;
using fieldrep::Object;
using fieldrep::ObjectSet;
using fieldrep::Oid;
using fieldrep::Status;
using fieldrep::Value;

std::string InitialRepfield(int32_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rep-%07d", key);
  return buf;
}

Status BuildModelDatabase(Database* db, const ModelShape& shape, uint64_t seed,
                          ModelData* data) {
  using fieldrep::CharAttr;
  using fieldrep::Int32Attr;
  using fieldrep::RefAttr;
  using fieldrep::TypeDescriptor;
  FIELDREP_RETURN_IF_ERROR(db->DefineType(TypeDescriptor(
      "STYPE", {Int32Attr("field_s"), CharAttr("repfield", kRepfieldBytes),
                CharAttr("filler", kSFiller)})));
  FIELDREP_RETURN_IF_ERROR(db->DefineType(TypeDescriptor(
      "RTYPE", {Int32Attr("field_r"), RefAttr("sref", "STYPE"),
                CharAttr("filler", kRFiller)})));
  FIELDREP_RETURN_IF_ERROR(db->CreateSet("S", "STYPE"));
  FIELDREP_RETURN_IF_ERROR(db->CreateSet("R", "RTYPE"));

  // Replication adds hidden bytes to stored objects; reserve page space so
  // the growth happens in place and objects per page match the model.
  {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * s_set, db->GetSet("S"));
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * r_set, db->GetSet("R"));
    s_set->file().set_growth_reserve(16);  // link ref
    r_set->file().set_growth_reserve(30);  // replica value slot
  }

  fieldrep::Random rng(seed);
  const uint32_t s_count = shape.s_count;
  const uint64_t r_count = static_cast<uint64_t>(shape.f) * s_count;

  data->s_keys.resize(s_count);
  for (uint32_t i = 0; i < s_count; ++i) data->s_keys[i] = static_cast<int32_t>(i);
  rng.Shuffle(&data->s_keys);
  data->s_oids.clear();
  data->s_oids.reserve(s_count);
  const std::string s_filler(kSFiller, 's');
  for (uint32_t i = 0; i < s_count; ++i) {
    const int32_t key = data->s_keys[i];
    Object object(0, {Value(key), Value(InitialRepfield(key)), Value(s_filler)});
    Oid oid;
    FIELDREP_RETURN_IF_ERROR(db->Insert("S", object, &oid));
    data->s_oids.push_back(oid);
  }

  // Each S object is referenced exactly f times, in random order.
  std::vector<uint32_t> r_target(r_count);
  for (uint64_t i = 0; i < r_count; ++i) {
    r_target[i] = static_cast<uint32_t>(i % s_count);
  }
  rng.Shuffle(&r_target);
  data->r_keys.resize(r_count);
  for (uint64_t i = 0; i < r_count; ++i) {
    data->r_keys[i] = static_cast<int32_t>(i);
  }
  rng.Shuffle(&data->r_keys);
  data->r_oids.clear();
  data->r_oids.reserve(r_count);
  const std::string r_filler(kRFiller, 'r');
  for (uint64_t i = 0; i < r_count; ++i) {
    Object object(0, {Value(data->r_keys[i]),
                      Value(data->s_oids[r_target[i]]), Value(r_filler)});
    Oid oid;
    FIELDREP_RETURN_IF_ERROR(db->Insert("R", object, &oid));
    data->r_oids.push_back(oid);
  }

  FIELDREP_RETURN_IF_ERROR(
      db->Replicate("R.sref.repfield", fieldrep::ReplicateOptions()));
  FIELDREP_RETURN_IF_ERROR(db->BuildIndex("r_field_r", "R", "field_r"));
  FIELDREP_RETURN_IF_ERROR(db->BuildIndex("s_field_s", "S", "field_s"));

  // Serialized sizes after replication hooks ran (16-byte object header).
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * r_set, db->GetSet("R"));
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * s_set, db->GetSet("S"));
  std::string payload;
  FIELDREP_RETURN_IF_ERROR(r_set->file().Read(data->r_oids[0], &payload));
  data->head_bytes = static_cast<double>(payload.size()) - 16 - kTargetR;
  FIELDREP_RETURN_IF_ERROR(s_set->file().Read(data->s_oids[0], &payload));
  data->terminal_bytes = static_cast<double>(payload.size()) - 16 - kTargetS;
  return Status::OK();
}

fieldrep::CostModelParams ModelParams(const ModelShape& shape,
                                      const ModelData& data, double fr,
                                      double fs) {
  fieldrep::CostModelParams params;
  params.S = shape.s_count;
  params.f = shape.f;
  params.fr = fr;
  params.fs = fs;
  params.r = kTargetR;
  params.s = kTargetS;
  params.t = 100;
  params.k = kRepfieldBytes;
  params.inplace_head_bytes = data.head_bytes;
  params.inplace_terminal_bytes = data.terminal_bytes;
  params.link_fixed_bytes = 0;  // link record overhead is the model's h
  return params;
}

}  // namespace perfbench
