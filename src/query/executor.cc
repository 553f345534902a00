#include "query/executor.h"

#include <algorithm>

#include "common/strings.h"

namespace fieldrep {

Executor::Executor(Catalog* catalog, SetProvider* sets, IndexManager* indexes,
                   ReplicationManager* replication)
    : catalog_(catalog),
      sets_(sets),
      indexes_(indexes),
      replication_(replication) {}

Status Executor::EnsureOutputFileLocked() {
  if (output_file_id() != kInvalidFileId) return Status::OK();
  FileId file_id;
  FIELDREP_RETURN_IF_ERROR(sets_->CreateAuxFile(&file_id).status());
  restore_output_file_id(file_id);
  return Status::OK();
}

Result<RecordFile*> Executor::OutputFileLocked() {
  FIELDREP_RETURN_IF_ERROR(EnsureOutputFileLocked());
  return sets_->GetAuxFile(output_file_id());
}

Status Executor::EnsureOutputFile() {
  MutexLock lock(output_mu_);
  return EnsureOutputFileLocked();
}

Status Executor::TruncateOutput() {
  MutexLock lock(output_mu_);
  if (output_file_id() == kInvalidFileId) return Status::OK();
  FIELDREP_ASSIGN_OR_RETURN(RecordFile * file,
                            sets_->GetAuxFile(output_file_id()));
  return file->Truncate();
}

Result<RecordFile*> Executor::output_file() {
  MutexLock lock(output_mu_);
  return OutputFileLocked();
}

std::string Executor::EncodeOutputMetadata(FileId* file_id) {
  MutexLock lock(output_mu_);
  *file_id = output_file_id();
  if (*file_id == kInvalidFileId) return std::string();
  auto file = sets_->GetAuxFile(*file_id);
  if (!file.ok()) {
    *file_id = kInvalidFileId;
    return std::string();
  }
  return file.value()->EncodeMetadata();
}

Status Executor::ReadObjectAt(const Oid& oid, Object* object,
                              ObjectSet** set_out) const {
  FIELDREP_ASSIGN_OR_RETURN(const SetInfo* info,
                            catalog_->GetSetForFile(oid.file_id));
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(info->name));
  if (set_out != nullptr) *set_out = set;
  return set->Read(oid, object);
}

Status Executor::PlanColumn(const ObjectSet& set, const std::string& set_name,
                            bool use_replication,
                            const std::string& projection,
                            ColumnPlan* plan) const {
  *plan = ColumnPlan();
  if (projection.find('.') == std::string::npos) {
    int attr = set.type().FindAttribute(projection);
    if (attr < 0) {
      return Status::InvalidArgument("type " + set.type().name() +
                                     " has no attribute " + projection);
    }
    plan->kind = ColumnPlan::Kind::kAttr;
    plan->attr_index = attr;
    return Status::OK();
  }

  std::vector<std::string> parts = SplitString(projection, '.');
  // Bind the component chain against the type graph up front so malformed
  // projections fail regardless of replication coverage.
  std::vector<int> attr_chain(parts.size(), -1);
  std::vector<const TypeDescriptor*> types(parts.size() + 1, nullptr);
  {
    FIELDREP_ASSIGN_OR_RETURN(types[0], catalog_->GetType(set.type().name()));
    for (size_t i = 0; i < parts.size(); ++i) {
      attr_chain[i] = types[i]->FindAttribute(parts[i]);
      if (attr_chain[i] < 0) {
        return Status::InvalidArgument("type " + types[i]->name() +
                                       " has no attribute " + parts[i] +
                                       " (projection " + projection + ")");
      }
      const AttributeDescriptor& attr = types[i]->attribute(attr_chain[i]);
      if (i + 1 < parts.size()) {
        if (!attr.is_ref()) {
          return Status::InvalidArgument(
              "attribute " + parts[i] + " of " + types[i]->name() +
              " is not a reference (projection " + projection + ")");
        }
        FIELDREP_ASSIGN_OR_RETURN(types[i + 1],
                                  catalog_->GetType(attr.ref_type));
      }
    }
  }

  auto replica_plan_for =
      [&](size_t prefix_len) -> const ReplicationPathInfo* {
    // A prefix of length L is covered by the exact path spec or by an
    // `.all` path one component shorter.
    std::string spec = set_name;
    for (size_t i = 0; i < prefix_len; ++i) spec += "." + parts[i];
    if (const ReplicationPathInfo* p = catalog_->FindPathBySpec(spec)) {
      return p;
    }
    if (prefix_len >= 2) {
      std::string all_spec = set_name;
      for (size_t i = 0; i + 1 < prefix_len; ++i) all_spec += "." + parts[i];
      all_spec += ".all";
      if (const ReplicationPathInfo* p = catalog_->FindPathBySpec(all_spec)) {
        return p;
      }
    }
    return nullptr;
  };

  auto position_in_path = [&](const ReplicationPathInfo& path,
                              size_t prefix_len) -> int {
    int terminal_attr = attr_chain[prefix_len - 1];
    for (size_t i = 0; i < path.bound.terminal_fields.size(); ++i) {
      if (path.bound.terminal_fields[i] == terminal_attr) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  if (use_replication) {
    // Exact coverage: the whole projection is replicated.
    if (const ReplicationPathInfo* path = replica_plan_for(parts.size())) {
      int pos = position_in_path(*path, parts.size());
      if (pos >= 0) {
        plan->kind = ColumnPlan::Kind::kReplica;
        plan->path = path;
        plan->replica_pos = pos;
        return Status::OK();
      }
    }
    // Longest replicated prefix ending in a ref attribute (Section 3.3.3:
    // a replicated `Emp1.dept.org` collapses `dept.org.name` to one join).
    // Only in-place prefixes give the OID without I/O.
    for (size_t prefix = parts.size() - 1; prefix >= 1; --prefix) {
      const ReplicationPathInfo* path = replica_plan_for(prefix);
      if (path == nullptr ||
          path->strategy != ReplicationStrategy::kInPlace) {
        continue;
      }
      int pos = position_in_path(*path, prefix);
      if (pos < 0) continue;
      plan->kind = ColumnPlan::Kind::kJoin;
      plan->path = path;
      plan->replica_pos = pos;
      plan->hop_attrs.assign(attr_chain.begin() + prefix, attr_chain.end());
      return Status::OK();
    }
  }

  // Pure functional joins.
  plan->kind = ColumnPlan::Kind::kJoin;
  plan->start_attr = attr_chain[0];
  plan->hop_attrs.assign(attr_chain.begin() + 1, attr_chain.end());
  return Status::OK();
}

Result<Value> Executor::EvaluateColumn(const ColumnPlan& plan,
                                       const Object& head) const {
  switch (plan.kind) {
    case ColumnPlan::Kind::kAttr:
      return head.field(plan.attr_index);
    case ColumnPlan::Kind::kReplica: {
      if (plan.path->strategy == ReplicationStrategy::kInPlace) {
        const Value* v = plan.InPlaceValue(head);
        return v != nullptr ? *v : Value::Null();
      }
      const ReplicaRefSlot* slot = head.FindReplicaRef(plan.path->id);
      if (slot == nullptr) return Value::Null();
      FIELDREP_ASSIGN_OR_RETURN(
          RecordFile * file, sets_->GetAuxFile(plan.path->replica_set_file));
      return ReadReplicaValue(file, slot->replica_oid, plan.replica_pos);
    }
    case ColumnPlan::Kind::kJoin: {
      Oid current = plan.JoinStart(head);
      Value value = Value::Null();
      for (size_t hop = 0; hop < plan.hop_attrs.size(); ++hop) {
        if (!current.valid()) return Value::Null();
        Object target;
        FIELDREP_RETURN_IF_ERROR(ReadObjectAt(current, &target));
        const Value& v = target.field(plan.hop_attrs[hop]);
        if (hop + 1 == plan.hop_attrs.size()) {
          value = v;
        } else {
          current = v.is_ref() ? v.as_ref() : Oid::Invalid();
        }
      }
      return value;
    }
  }
  return Status::Internal("unreachable");
}

Result<Value> Executor::ReadReplicaValue(RecordFile* file, const Oid& oid,
                                         int pos) {
  std::string payload;
  FIELDREP_RETURN_IF_ERROR(file->Read(oid, &payload));
  ReplicaRecord record;
  FIELDREP_RETURN_IF_ERROR(record.Deserialize(payload));
  if (pos >= static_cast<int>(record.values.size())) return Value::Null();
  return std::move(record.values[pos]);
}

Status Executor::BindClause(const ObjectSet& set, const std::string& set_name,
                            bool use_replication, const Predicate& predicate,
                            BoundClause* clause) const {
  FIELDREP_RETURN_IF_ERROR(PlanColumn(set, set_name, use_replication,
                                      predicate.attr_name, &clause->plan));
  // Locate the attribute descriptor the clause compares against: the
  // terminal attribute of a dotted expression, or the plain attribute.
  if (predicate.attr_name.find('.') == std::string::npos) {
    FIELDREP_ASSIGN_OR_RETURN(clause->predicate,
                              BoundPredicate::Bind(predicate, set.type()));
    return Status::OK();
  }
  std::vector<std::string> parts = SplitString(predicate.attr_name, '.');
  const TypeDescriptor* current;
  FIELDREP_ASSIGN_OR_RETURN(current, catalog_->GetType(set.type().name()));
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    int attr = current->FindAttribute(parts[i]);
    FIELDREP_ASSIGN_OR_RETURN(
        current, catalog_->GetType(current->attribute(attr).ref_type));
  }
  int terminal_attr = current->FindAttribute(parts.back());
  FIELDREP_ASSIGN_OR_RETURN(
      clause->predicate,
      BoundPredicate::BindToAttribute(
          predicate, current->attribute(terminal_attr), terminal_attr));
  return Status::OK();
}

Status Executor::CollectTargets(ObjectSet* set,
                                const std::optional<Predicate>& predicate,
                                const std::string& set_name,
                                bool use_replication, bool* used_index,
                                bool* needs_recheck,
                                std::optional<BoundClause>* clause,
                                std::vector<Oid>* oids) {
  oids->clear();
  *used_index = false;
  *needs_recheck = false;
  clause->reset();
  if (!predicate.has_value()) {
    FIELDREP_RETURN_IF_ERROR(set->file().ListOids(oids));
    std::sort(oids->begin(), oids->end());
    return Status::OK();
  }
  BoundClause bound;
  FIELDREP_RETURN_IF_ERROR(
      BindClause(*set, set_name, use_replication, *predicate, &bound));
  const IndexInfo* index_info =
      catalog_->FindIndex(set_name, predicate->attr_name);
  if (index_info != nullptr) {
    FIELDREP_ASSIGN_OR_RETURN(BTree * tree,
                              indexes_->GetIndex(index_info->name));
    int64_t lo, hi;
    bool exact;
    FIELDREP_RETURN_IF_ERROR(bound.predicate.KeyRange(&lo, &hi, &exact));
    FIELDREP_RETURN_IF_ERROR(tree->ScanRange(lo, hi, [&](int64_t, Oid oid) {
      oids->push_back(oid);
      return true;
    }));
    *used_index = true;
    *needs_recheck = !exact;
  } else {
    // No index: scan and filter through the clause's value plan (replica,
    // plain attribute, or per-object path resolution).
    Status eval_status;
    FIELDREP_RETURN_IF_ERROR(
        set->Scan([&](const Oid& oid, const Object& object) {
          Result<Value> value = EvaluateColumn(bound.plan, object);
          if (!value.ok()) {
            eval_status = value.status();
            return false;
          }
          Result<bool> match = bound.predicate.Matches(*value);
          if (!match.ok()) {
            eval_status = match.status();
            return false;
          }
          if (match.value()) oids->push_back(oid);
          return true;
        }));
    FIELDREP_RETURN_IF_ERROR(eval_status);
  }
  std::sort(oids->begin(), oids->end());
  oids->erase(std::unique(oids->begin(), oids->end()), oids->end());
  *clause = std::move(bound);
  return Status::OK();
}

}  // namespace fieldrep
