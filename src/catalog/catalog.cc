#include "catalog/catalog.h"

#include "common/bytes.h"
#include "common/strings.h"

namespace fieldrep {

Status Catalog::DefineType(TypeDescriptor type) {
  FIELDREP_RETURN_IF_ERROR(type.Validate());
  if (types_by_name_.count(type.name()) != 0) {
    return Status::AlreadyExists("type " + type.name() + " already defined");
  }
  // Ref targets may be defined later (mutually recursive types), but warn-
  // level validation of dangling refs happens at set creation / binding.
  type.set_type_tag(next_type_tag_++);
  types_by_tag_[type.type_tag()] = type.name();
  types_by_name_.emplace(type.name(), std::move(type));
  return Status::OK();
}

Result<const TypeDescriptor*> Catalog::GetType(const std::string& name) const {
  auto it = types_by_name_.find(name);
  if (it == types_by_name_.end()) {
    return Status::NotFound("no type named " + name);
  }
  return &it->second;
}

Result<const TypeDescriptor*> Catalog::GetTypeByTag(uint16_t tag) const {
  auto it = types_by_tag_.find(tag);
  if (it == types_by_tag_.end()) {
    return Status::NotFound(StringPrintf("no type with tag %u", tag));
  }
  return GetType(it->second);
}

Status Catalog::CreateSet(const std::string& name,
                          const std::string& type_name, FileId* file_id) {
  if (sets_.count(name) != 0) {
    return Status::AlreadyExists("set " + name + " already exists");
  }
  FIELDREP_ASSIGN_OR_RETURN(const TypeDescriptor* type, GetType(type_name));
  // All ref targets must resolve before objects can be stored.
  for (const AttributeDescriptor& attr : type->attributes()) {
    if (attr.is_ref() && types_by_name_.count(attr.ref_type) == 0) {
      return Status::FailedPrecondition(
          "set " + name + " has ref attribute " + attr.name +
          " to undefined type " + attr.ref_type);
    }
  }
  SetInfo info;
  info.name = name;
  info.type_name = type_name;
  info.file_id = AllocateFileId();
  sets_by_file_[info.file_id] = name;
  *file_id = info.file_id;
  sets_.emplace(name, std::move(info));
  return Status::OK();
}

Result<const SetInfo*> Catalog::GetSet(const std::string& name) const {
  auto it = sets_.find(name);
  if (it == sets_.end()) return Status::NotFound("no set named " + name);
  return &it->second;
}

Result<const SetInfo*> Catalog::GetSetForFile(FileId file_id) const {
  auto it = sets_by_file_.find(file_id);
  if (it == sets_by_file_.end()) {
    return Status::NotFound(StringPrintf("no set stored in file %u", file_id));
  }
  return GetSet(it->second);
}

std::vector<std::string> Catalog::SetNames() const {
  std::vector<std::string> out;
  out.reserve(sets_.size());
  for (const auto& [name, info] : sets_) out.push_back(name);
  return out;
}

Status Catalog::BindPath(const std::string& expr, BoundPath* out) const {
  std::string set_name;
  std::vector<std::string> components;
  FIELDREP_RETURN_IF_ERROR(ParsePathExpression(expr, &set_name, &components));
  FIELDREP_ASSIGN_OR_RETURN(const SetInfo* set, GetSet(set_name));
  FIELDREP_ASSIGN_OR_RETURN(const TypeDescriptor* type,
                            GetType(set->type_name));

  BoundPath bound;
  bound.set_name = set_name;
  const TypeDescriptor* current = type;
  for (size_t i = 0; i < components.size(); ++i) {
    const std::string& component = components[i];
    bool last = (i + 1 == components.size());
    if (last && component == "all") {
      // `.all` replicates every attribute of the terminal type
      // (Section 3.3.1: "all the information about an employee's
      // department").
      bound.all = true;
      bound.terminal_type = current->name();
      for (size_t j = 0; j < current->attribute_count(); ++j) {
        bound.terminal_fields.push_back(static_cast<int>(j));
      }
      *out = std::move(bound);
      return Status::OK();
    }
    int attr_index = current->FindAttribute(component);
    if (attr_index < 0) {
      return Status::InvalidArgument("type " + current->name() +
                                     " has no attribute '" + component +
                                     "' (in path " + expr + ")");
    }
    const AttributeDescriptor& attr = current->attribute(attr_index);
    if (!last) {
      if (!attr.is_ref()) {
        return Status::InvalidArgument(
            "attribute '" + component + "' of " + current->name() +
            " is not a reference attribute (in path " + expr + ")");
      }
      PathStep step;
      step.attr_name = component;
      step.attr_index = attr_index;
      step.source_type = current->name();
      step.target_type = attr.ref_type;
      bound.steps.push_back(std::move(step));
      FIELDREP_ASSIGN_OR_RETURN(current, GetType(attr.ref_type));
    } else {
      bound.terminal_type = current->name();
      bound.terminal_fields.push_back(attr_index);
    }
  }
  *out = std::move(bound);
  return Status::OK();
}

Status Catalog::RegisterReplicationPath(ReplicationPathInfo info,
                                        uint16_t* id) {
  if (FindPathBySpec(info.spec) != nullptr) {
    return Status::AlreadyExists("replication path " + info.spec +
                                 " already exists");
  }
  info.id = next_path_id_++;
  *id = info.id;
  paths_.emplace(info.id, std::move(info));
  return Status::OK();
}

Status Catalog::DropReplicationPath(uint16_t id) {
  if (paths_.erase(id) == 0) {
    return Status::NotFound(StringPrintf("no replication path %u", id));
  }
  link_registry_.ReleasePathLinks(id);
  return Status::OK();
}

const ReplicationPathInfo* Catalog::GetPath(uint16_t id) const {
  auto it = paths_.find(id);
  return it == paths_.end() ? nullptr : &it->second;
}

ReplicationPathInfo* Catalog::GetMutablePath(uint16_t id) {
  auto it = paths_.find(id);
  return it == paths_.end() ? nullptr : &it->second;
}

const ReplicationPathInfo* Catalog::FindPathBySpec(
    const std::string& spec) const {
  for (const auto& [id, info] : paths_) {
    if (info.spec == spec) return &info;
  }
  return nullptr;
}

std::vector<uint16_t> Catalog::PathsHeadedAt(
    const std::string& set_name) const {
  std::vector<uint16_t> out;
  for (const auto& [id, info] : paths_) {
    if (info.bound.set_name == set_name) out.push_back(id);
  }
  return out;
}

std::vector<uint16_t> Catalog::AllPathIds() const {
  std::vector<uint16_t> out;
  out.reserve(paths_.size());
  for (const auto& [id, info] : paths_) out.push_back(id);
  return out;
}

Status Catalog::RegisterIndex(IndexInfo info) {
  if (indexes_.count(info.name) != 0) {
    return Status::AlreadyExists("index " + info.name + " already exists");
  }
  indexes_.emplace(info.name, std::move(info));
  return Status::OK();
}

Status Catalog::DropIndex(const std::string& name) {
  if (indexes_.erase(name) == 0) {
    return Status::NotFound("no index named " + name);
  }
  return Status::OK();
}

const IndexInfo* Catalog::FindIndexByName(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : &it->second;
}

const IndexInfo* Catalog::FindIndex(const std::string& set_name,
                                    const std::string& key_expr) const {
  for (const auto& [name, info] : indexes_) {
    if (info.set_name == set_name && info.key_expr == key_expr) return &info;
  }
  return nullptr;
}

std::vector<const IndexInfo*> Catalog::IndexesOnSet(
    const std::string& set_name) const {
  std::vector<const IndexInfo*> out;
  for (const auto& [name, info] : indexes_) {
    if (info.set_name == set_name) out.push_back(&info);
  }
  return out;
}

namespace {

void EncodeBoundPath(const BoundPath& path, std::string* out) {
  PutLengthPrefixed(out, path.set_name);
  PutU16(out, static_cast<uint16_t>(path.steps.size()));
  for (const PathStep& step : path.steps) {
    PutLengthPrefixed(out, step.attr_name);
    PutI32(out, step.attr_index);
    PutLengthPrefixed(out, step.source_type);
    PutLengthPrefixed(out, step.target_type);
  }
  PutLengthPrefixed(out, path.terminal_type);
  out->push_back(static_cast<char>(path.all ? 1 : 0));
  PutU16(out, static_cast<uint16_t>(path.terminal_fields.size()));
  for (int field : path.terminal_fields) PutI32(out, field);
}

Status DecodeBoundPath(ByteReader* reader, BoundPath* path) {
  *path = BoundPath();
  uint16_t steps, fields;
  std::string byte;
  if (!reader->GetLengthPrefixed(&path->set_name) ||
      !reader->GetU16(&steps)) {
    return Status::Corruption("truncated bound path");
  }
  for (uint16_t i = 0; i < steps; ++i) {
    PathStep step;
    if (!reader->GetLengthPrefixed(&step.attr_name) ||
        !reader->GetI32(&step.attr_index) ||
        !reader->GetLengthPrefixed(&step.source_type) ||
        !reader->GetLengthPrefixed(&step.target_type)) {
      return Status::Corruption("truncated path step");
    }
    path->steps.push_back(std::move(step));
  }
  if (!reader->GetLengthPrefixed(&path->terminal_type) ||
      !reader->GetRaw(1, &byte) || !reader->GetU16(&fields)) {
    return Status::Corruption("truncated bound path");
  }
  path->all = byte[0] != 0;
  for (uint16_t i = 0; i < fields; ++i) {
    int32_t field;
    if (!reader->GetI32(&field)) {
      return Status::Corruption("truncated bound path");
    }
    path->terminal_fields.push_back(field);
  }
  return Status::OK();
}

}  // namespace

void Catalog::EncodeTo(std::string* out) const {
  // Types.
  PutU16(out, static_cast<uint16_t>(types_by_name_.size()));
  for (const auto& [name, type] : types_by_name_) {
    PutLengthPrefixed(out, name);
    PutU16(out, type.type_tag());
    PutU16(out, static_cast<uint16_t>(type.attribute_count()));
    for (const AttributeDescriptor& attr : type.attributes()) {
      PutLengthPrefixed(out, attr.name);
      out->push_back(static_cast<char>(attr.type));
      PutU32(out, attr.char_length);
      PutLengthPrefixed(out, attr.ref_type);
    }
  }
  // Sets.
  PutU16(out, static_cast<uint16_t>(sets_.size()));
  for (const auto& [name, info] : sets_) {
    PutLengthPrefixed(out, name);
    PutLengthPrefixed(out, info.type_name);
    PutU16(out, info.file_id);
  }
  // Replication paths.
  PutU16(out, static_cast<uint16_t>(paths_.size()));
  for (const auto& [id, info] : paths_) {
    PutU16(out, info.id);
    PutLengthPrefixed(out, info.spec);
    EncodeBoundPath(info.bound, out);
    out->push_back(static_cast<char>(info.strategy));
    out->push_back(static_cast<char>(info.collapsed ? 1 : 0));
    PutU32(out, info.inline_threshold);
    out->push_back(static_cast<char>(info.cluster_links ? 1 : 0));
    PutU16(out, static_cast<uint16_t>(info.link_sequence.size()));
    for (uint8_t link : info.link_sequence) {
      out->push_back(static_cast<char>(link));
    }
    PutU16(out, info.replica_set_file);
  }
  link_registry_.EncodeTo(out);
  // Indexes.
  PutU16(out, static_cast<uint16_t>(indexes_.size()));
  for (const auto& [name, info] : indexes_) {
    PutLengthPrefixed(out, info.name);
    PutLengthPrefixed(out, info.set_name);
    PutLengthPrefixed(out, info.key_expr);
    out->push_back(static_cast<char>(info.clustered ? 1 : 0));
    PutI32(out, info.attr_index);
    PutU16(out, info.path_id);
    out->push_back(static_cast<char>(info.is_path_index ? 1 : 0));
    PutU16(out, info.file_id);
  }
  // Counters.
  PutU16(out, next_type_tag_);
  PutU16(out, next_file_id_.load(std::memory_order_relaxed));
  PutU16(out, next_path_id_);
}

Status Catalog::DecodeFrom(ByteReader* reader) {
  types_by_name_.clear();
  types_by_tag_.clear();
  sets_.clear();
  sets_by_file_.clear();
  paths_.clear();
  indexes_.clear();

  uint16_t type_count;
  if (!reader->GetU16(&type_count)) {
    return Status::Corruption("truncated catalog: types");
  }
  for (uint16_t i = 0; i < type_count; ++i) {
    std::string name;
    uint16_t tag, attr_count;
    if (!reader->GetLengthPrefixed(&name) || !reader->GetU16(&tag) ||
        !reader->GetU16(&attr_count)) {
      return Status::Corruption("truncated type");
    }
    std::vector<AttributeDescriptor> attrs;
    for (uint16_t j = 0; j < attr_count; ++j) {
      AttributeDescriptor attr;
      std::string kind;
      if (!reader->GetLengthPrefixed(&attr.name) || !reader->GetRaw(1, &kind) ||
          !reader->GetU32(&attr.char_length) ||
          !reader->GetLengthPrefixed(&attr.ref_type)) {
        return Status::Corruption("truncated attribute");
      }
      attr.type = static_cast<FieldType>(kind[0]);
      attrs.push_back(std::move(attr));
    }
    TypeDescriptor type(name, std::move(attrs));
    type.set_type_tag(tag);
    types_by_tag_[tag] = name;
    types_by_name_.emplace(name, std::move(type));
  }

  uint16_t set_count;
  if (!reader->GetU16(&set_count)) {
    return Status::Corruption("truncated catalog: sets");
  }
  for (uint16_t i = 0; i < set_count; ++i) {
    SetInfo info;
    if (!reader->GetLengthPrefixed(&info.name) ||
        !reader->GetLengthPrefixed(&info.type_name) ||
        !reader->GetU16(&info.file_id)) {
      return Status::Corruption("truncated set");
    }
    sets_by_file_[info.file_id] = info.name;
    sets_.emplace(info.name, std::move(info));
  }

  uint16_t path_count;
  if (!reader->GetU16(&path_count)) {
    return Status::Corruption("truncated catalog: paths");
  }
  for (uint16_t i = 0; i < path_count; ++i) {
    ReplicationPathInfo info;
    std::string byte;
    uint16_t link_count;
    if (!reader->GetU16(&info.id) || !reader->GetLengthPrefixed(&info.spec)) {
      return Status::Corruption("truncated path");
    }
    FIELDREP_RETURN_IF_ERROR(DecodeBoundPath(reader, &info.bound));
    if (!reader->GetRaw(1, &byte)) return Status::Corruption("truncated path");
    info.strategy = static_cast<ReplicationStrategy>(byte[0]);
    if (!reader->GetRaw(1, &byte)) return Status::Corruption("truncated path");
    info.collapsed = byte[0] != 0;
    if (!reader->GetU32(&info.inline_threshold)) {
      return Status::Corruption("truncated path");
    }
    if (!reader->GetRaw(1, &byte)) return Status::Corruption("truncated path");
    info.cluster_links = byte[0] != 0;
    if (!reader->GetU16(&link_count)) {
      return Status::Corruption("truncated path");
    }
    for (uint16_t j = 0; j < link_count; ++j) {
      if (!reader->GetRaw(1, &byte)) {
        return Status::Corruption("truncated path");
      }
      info.link_sequence.push_back(static_cast<uint8_t>(byte[0]));
    }
    if (!reader->GetU16(&info.replica_set_file)) {
      return Status::Corruption("truncated path");
    }
    paths_.emplace(info.id, std::move(info));
  }

  FIELDREP_RETURN_IF_ERROR(link_registry_.DecodeFrom(reader));

  uint16_t index_count;
  if (!reader->GetU16(&index_count)) {
    return Status::Corruption("truncated catalog: indexes");
  }
  for (uint16_t i = 0; i < index_count; ++i) {
    IndexInfo info;
    std::string byte;
    if (!reader->GetLengthPrefixed(&info.name) ||
        !reader->GetLengthPrefixed(&info.set_name) ||
        !reader->GetLengthPrefixed(&info.key_expr)) {
      return Status::Corruption("truncated index");
    }
    if (!reader->GetRaw(1, &byte)) return Status::Corruption("truncated index");
    info.clustered = byte[0] != 0;
    if (!reader->GetI32(&info.attr_index) || !reader->GetU16(&info.path_id)) {
      return Status::Corruption("truncated index");
    }
    if (!reader->GetRaw(1, &byte)) return Status::Corruption("truncated index");
    info.is_path_index = byte[0] != 0;
    if (!reader->GetU16(&info.file_id)) {
      return Status::Corruption("truncated index");
    }
    indexes_.emplace(info.name, std::move(info));
  }

  uint16_t next_file_id = 0;
  if (!reader->GetU16(&next_type_tag_) || !reader->GetU16(&next_file_id) ||
      !reader->GetU16(&next_path_id_)) {
    return Status::Corruption("truncated catalog: counters");
  }
  next_file_id_.store(next_file_id, std::memory_order_relaxed);
  return Status::OK();
}

std::string Catalog::Describe() const {
  std::string out;
  for (const auto& [name, type] : types_by_name_) {
    out += type.ToString() + "\n";
  }
  for (const auto& [name, info] : sets_) {
    out += "create " + name + ": {own ref " + info.type_name + "}\n";
  }
  for (const auto& [id, info] : paths_) {
    out += "replicate " + info.spec + "  -- " +
           ReplicationStrategyName(info.strategy) + ", link sequence " +
           info.LinkSequenceString() + (info.collapsed ? ", collapsed" : "") +
           "\n";
  }
  for (const auto& [name, info] : indexes_) {
    out += "build btree " + name + " on " + info.set_name + "." +
           info.key_expr + (info.clustered ? " (clustered)" : "") + "\n";
  }
  return out;
}

}  // namespace fieldrep
