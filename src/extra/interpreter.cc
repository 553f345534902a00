#include "extra/interpreter.h"

#include <algorithm>

#include "common/strings.h"
#include "extra/parser.h"

namespace fieldrep::extra {

Result<std::string> Interpreter::Execute(const std::string& script) {
  FIELDREP_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                            Parser::Parse(script));
  std::string output;
  for (const Statement& statement : statements) {
    FIELDREP_ASSIGN_OR_RETURN(std::string piece,
                              ExecuteStatement(statement));
    output += piece;
  }
  return output;
}

Result<std::string> Interpreter::ExecuteStatement(const Statement& statement) {
  return std::visit(
      [this](const auto& stmt) -> Result<std::string> { return Run(stmt); },
      statement);
}

Result<Oid> Interpreter::GetVariable(const std::string& name) const {
  auto it = variables_.find(name);
  if (it == variables_.end()) {
    return Status::NotFound("no variable named $" + name);
  }
  return it->second;
}

Result<Value> Interpreter::ResolveOperand(const Operand& operand) const {
  switch (operand.kind) {
    case Operand::Kind::kNull:
      return Value::Null();
    case Operand::Kind::kInteger:
      return Value(operand.int_value);
    case Operand::Kind::kFloat:
      return Value(operand.float_value);
    case Operand::Kind::kString:
      return Value(operand.text);
    case Operand::Kind::kVariable: {
      FIELDREP_ASSIGN_OR_RETURN(Oid oid, GetVariable(operand.text));
      return Value(oid);
    }
  }
  return Status::Internal("unreachable");
}

Result<Predicate> Interpreter::ResolveWhere(const WhereClause& where) const {
  Predicate predicate;
  predicate.attr_name = where.attr_name;
  predicate.op = where.op;
  FIELDREP_ASSIGN_OR_RETURN(predicate.operand,
                            ResolveOperand(where.operand));
  if (where.op == CompareOp::kBetween) {
    FIELDREP_ASSIGN_OR_RETURN(predicate.operand2,
                              ResolveOperand(where.operand2));
  }
  return predicate;
}

Result<std::string> Interpreter::Run(const DefineTypeStmt& stmt) {
  FIELDREP_RETURN_IF_ERROR(db_->DefineType(stmt.type));
  return "defined type " + stmt.type.name() + "\n";
}

Result<std::string> Interpreter::Run(const CreateSetStmt& stmt) {
  FIELDREP_RETURN_IF_ERROR(db_->CreateSet(stmt.set_name, stmt.type_name));
  return "created set " + stmt.set_name + ": {own ref " + stmt.type_name +
         "}\n";
}

Result<std::string> Interpreter::Run(const ReplicateStmt& stmt) {
  uint16_t path_id;
  FIELDREP_RETURN_IF_ERROR(db_->Replicate(stmt.spec, stmt.options, &path_id));
  const ReplicationPathInfo* path = db_->catalog().GetPath(path_id);
  return StringPrintf("replicated %s  -- %s, link sequence %s%s\n",
                      stmt.spec.c_str(),
                      ReplicationStrategyName(stmt.options.strategy),
                      path->LinkSequenceString().c_str(),
                      stmt.options.collapsed ? ", collapsed" : "");
}

Result<std::string> Interpreter::Run(const DropReplicateStmt& stmt) {
  FIELDREP_RETURN_IF_ERROR(db_->DropReplication(stmt.spec));
  return "dropped replication path " + stmt.spec + "\n";
}

Result<std::string> Interpreter::Run(const BuildIndexStmt& stmt) {
  FIELDREP_RETURN_IF_ERROR(db_->BuildIndex(stmt.index_name, stmt.set_name,
                                           stmt.key_expr, stmt.clustered));
  return "built btree " + stmt.index_name + " on " + stmt.set_name + "." +
         stmt.key_expr + (stmt.clustered ? " (clustered)" : "") + "\n";
}

Result<std::string> Interpreter::Run(const InsertStmt& stmt) {
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, db_->GetSet(stmt.set_name));
  const TypeDescriptor& type = set->type();
  Object object;
  object.mutable_fields().assign(type.attribute_count(), Value::Null());
  for (const auto& [attr_name, operand] : stmt.fields) {
    int attr = type.FindAttribute(attr_name);
    if (attr < 0) {
      return Status::InvalidArgument("type " + type.name() +
                                     " has no attribute " + attr_name);
    }
    FIELDREP_ASSIGN_OR_RETURN(Value value, ResolveOperand(operand));
    FIELDREP_ASSIGN_OR_RETURN(value, value.CoerceTo(type.attribute(attr)));
    object.set_field(attr, std::move(value));
  }
  Oid oid;
  FIELDREP_RETURN_IF_ERROR(db_->Insert(stmt.set_name, object, &oid));
  if (!stmt.bind_variable.empty()) {
    BindVariable(stmt.bind_variable, oid);
    return StringPrintf("inserted %s as $%s\n", oid.ToString().c_str(),
                        stmt.bind_variable.c_str());
  }
  return "inserted " + oid.ToString() + "\n";
}

Result<std::string> Interpreter::Run(const RetrieveStmt& stmt) {
  ReadQuery query;
  query.set_name = stmt.set_name;
  query.projections = stmt.projections;
  if (stmt.where.has_value()) {
    FIELDREP_ASSIGN_OR_RETURN(Predicate predicate,
                              ResolveWhere(*stmt.where));
    query.predicate = std::move(predicate);
  }
  ReadResult result;
  FIELDREP_RETURN_IF_ERROR(db_->Retrieve(query, &result));

  // Render an aligned table.
  std::vector<std::string> headers;
  headers.reserve(stmt.projections.size());
  for (const std::string& projection : stmt.projections) {
    headers.push_back(stmt.set_name + "." + projection);
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(result.rows.size());
  for (const std::vector<Value>& row : result.rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (const Value& value : row) line.push_back(value.ToString());
    cells.push_back(std::move(line));
  }
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
    for (const auto& line : cells) widths[c] = std::max(widths[c], line[c].size());
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& line) {
    out += " ";
    for (size_t c = 0; c < line.size(); ++c) {
      out += " " + line[c] + std::string(widths[c] - line[c].size(), ' ');
    }
    out += "\n";
  };
  append_row(headers);
  for (const auto& line : cells) append_row(line);
  out += StringPrintf("  (%zu row%s)\n", cells.size(),
                      cells.size() == 1 ? "" : "s");
  return out;
}

Result<std::string> Interpreter::Run(const ReplaceStmt& stmt) {
  UpdateQuery query;
  query.set_name = stmt.set_name;
  for (const auto& [attr_name, operand] : stmt.assignments) {
    FIELDREP_ASSIGN_OR_RETURN(Value value, ResolveOperand(operand));
    query.assignments.emplace_back(attr_name, std::move(value));
  }
  if (stmt.where.has_value()) {
    FIELDREP_ASSIGN_OR_RETURN(Predicate predicate,
                              ResolveWhere(*stmt.where));
    query.predicate = std::move(predicate);
  }
  UpdateResult result;
  FIELDREP_RETURN_IF_ERROR(db_->Replace(query, &result));
  return StringPrintf("replaced %llu object%s\n",
                      static_cast<unsigned long long>(result.objects_updated),
                      result.objects_updated == 1 ? "" : "s");
}

Result<std::string> Interpreter::Run(const DeleteStmt& stmt) {
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, db_->GetSet(stmt.set_name));
  std::vector<Oid> victims;
  if (stmt.where.has_value()) {
    FIELDREP_ASSIGN_OR_RETURN(Predicate predicate,
                              ResolveWhere(*stmt.where));
    FIELDREP_ASSIGN_OR_RETURN(BoundPredicate bound,
                              BoundPredicate::Bind(predicate, set->type()));
    Status match_status;
    FIELDREP_RETURN_IF_ERROR(
        set->Scan([&](const Oid& oid, const Object& object) {
          Result<bool> match = bound.Matches(object.field(bound.attr_index()));
          if (!match.ok()) {
            match_status = match.status();
            return false;
          }
          if (match.value()) victims.push_back(oid);
          return true;
        }));
    FIELDREP_RETURN_IF_ERROR(match_status);
  } else {
    FIELDREP_RETURN_IF_ERROR(set->file().ListOids(&victims));
  }
  for (const Oid& oid : victims) {
    FIELDREP_RETURN_IF_ERROR(db_->Delete(stmt.set_name, oid));
  }
  return StringPrintf("deleted %zu object%s\n", victims.size(),
                      victims.size() == 1 ? "" : "s");
}

Result<std::string> Interpreter::Run(const ShowCatalogStmt&) {
  return db_->catalog().Describe();
}

Result<std::string> Interpreter::Run(const CheckpointStmt&) {
  FIELDREP_RETURN_IF_ERROR(db_->Checkpoint());
  return std::string("checkpoint written\n");
}

Result<std::string> Interpreter::Run(const VerifyStmt& stmt) {
  const ReplicationPathInfo* path = db_->catalog().FindPathBySpec(stmt.spec);
  if (path == nullptr) {
    return Status::NotFound("no replication path " + stmt.spec);
  }
  FIELDREP_RETURN_IF_ERROR(
      db_->replication().VerifyPathConsistency(path->id));
  return "verified " + stmt.spec + ": consistent\n";
}

}  // namespace fieldrep::extra
