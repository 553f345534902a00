#include "extra/parser.h"

#include "common/strings.h"

namespace fieldrep::extra {

Result<std::vector<Statement>> Parser::Parse(const std::string& input) {
  std::vector<Token> tokens;
  FIELDREP_RETURN_IF_ERROR(Tokenize(input, &tokens));
  Parser parser(std::move(tokens));
  std::vector<Statement> statements;
  while (parser.Peek().kind != TokenKind::kEnd) {
    if (parser.ConsumeSymbol(";")) continue;
    FIELDREP_ASSIGN_OR_RETURN(Statement statement, parser.ParseStatement());
    statements.push_back(std::move(statement));
    if (parser.Peek().kind != TokenKind::kEnd) {
      FIELDREP_RETURN_IF_ERROR(parser.ExpectSymbol(";"));
    }
  }
  return statements;
}

const Token& Parser::Peek(size_t ahead) const {
  size_t index = pos_ + ahead;
  if (index >= tokens_.size()) index = tokens_.size() - 1;
  return tokens_[index];
}

const Token& Parser::Advance() {
  const Token& token = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return token;
}

bool Parser::ConsumeSymbol(const char* symbol) {
  if (Peek().IsSymbol(symbol)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::ConsumeKeyword(const char* keyword) {
  if (Peek().IsKeyword(keyword)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectSymbol(const char* symbol) {
  if (!ConsumeSymbol(symbol)) {
    return ErrorHere(StringPrintf("expected '%s'", symbol));
  }
  return Status::OK();
}

Status Parser::ExpectIdentifier(std::string* text) {
  if (Peek().kind != TokenKind::kIdentifier) {
    return ErrorHere("expected an identifier");
  }
  *text = Advance().text;
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& token = Peek();
  return Status::InvalidArgument(StringPrintf(
      "%s near '%s' (offset %zu)", message.c_str(),
      token.kind == TokenKind::kEnd ? "<end>" : token.text.c_str(),
      token.offset));
}

Result<Statement> Parser::ParseStatement() {
  const Token& token = Peek();
  if (token.IsKeyword("define")) {
    FIELDREP_ASSIGN_OR_RETURN(DefineTypeStmt stmt, ParseDefineType());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("create")) {
    FIELDREP_ASSIGN_OR_RETURN(CreateSetStmt stmt, ParseCreateSet());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("replicate")) {
    FIELDREP_ASSIGN_OR_RETURN(ReplicateStmt stmt, ParseReplicate());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("drop")) {
    Advance();
    if (!ConsumeKeyword("replicate")) {
      return ErrorHere("expected 'replicate' after 'drop'");
    }
    DropReplicateStmt stmt;
    FIELDREP_RETURN_IF_ERROR(ParseDottedName(&stmt.spec));
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("build")) {
    FIELDREP_ASSIGN_OR_RETURN(BuildIndexStmt stmt, ParseBuildIndex());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("insert")) {
    FIELDREP_ASSIGN_OR_RETURN(InsertStmt stmt, ParseInsert());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("retrieve")) {
    FIELDREP_ASSIGN_OR_RETURN(RetrieveStmt stmt, ParseRetrieve());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("replace")) {
    FIELDREP_ASSIGN_OR_RETURN(ReplaceStmt stmt, ParseReplace());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("delete")) {
    FIELDREP_ASSIGN_OR_RETURN(DeleteStmt stmt, ParseDelete());
    return Statement(std::move(stmt));
  }
  if (token.IsKeyword("show")) {
    Advance();
    if (!ConsumeKeyword("catalog")) {
      return ErrorHere("expected 'catalog' after 'show'");
    }
    return Statement(ShowCatalogStmt{});
  }
  if (token.IsKeyword("checkpoint")) {
    Advance();
    return Statement(CheckpointStmt{});
  }
  if (token.IsKeyword("verify")) {
    Advance();
    VerifyStmt stmt;
    FIELDREP_RETURN_IF_ERROR(ParseDottedName(&stmt.spec));
    return Statement(std::move(stmt));
  }
  return ErrorHere("unknown statement");
}

Result<DefineTypeStmt> Parser::ParseDefineType() {
  Advance();  // define
  if (!ConsumeKeyword("type")) return ErrorHere("expected 'type'");
  std::string type_name;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&type_name));
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol("("));
  std::vector<AttributeDescriptor> attributes;
  if (!Peek().IsSymbol(")")) {
    do {
      std::string attr_name;
      FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&attr_name));
      FIELDREP_RETURN_IF_ERROR(ExpectSymbol(":"));
      if (ConsumeKeyword("int")) {
        attributes.push_back(Int32Attr(attr_name));
      } else if (ConsumeKeyword("int64")) {
        attributes.push_back(Int64Attr(attr_name));
      } else if (ConsumeKeyword("double") || ConsumeKeyword("float")) {
        attributes.push_back(DoubleAttr(attr_name));
      } else if (ConsumeKeyword("string")) {
        attributes.push_back(StringAttr(attr_name));
      } else if (ConsumeKeyword("char")) {
        FIELDREP_RETURN_IF_ERROR(ExpectSymbol("["));
        if (Peek().kind != TokenKind::kInteger) {
          return ErrorHere("expected a char[] length");
        }
        int64_t length = Advance().int_value;
        if (length <= 0 || length > 4000) {
          return ErrorHere("char[] length out of range");
        }
        FIELDREP_RETURN_IF_ERROR(ExpectSymbol("]"));
        attributes.push_back(
            CharAttr(attr_name, static_cast<uint32_t>(length)));
      } else if (ConsumeKeyword("ref")) {
        std::string target;
        FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&target));
        attributes.push_back(RefAttr(attr_name, target));
      } else {
        return ErrorHere("unknown attribute type");
      }
    } while (ConsumeSymbol(","));
  }
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol(")"));
  DefineTypeStmt stmt;
  stmt.type = TypeDescriptor(type_name, std::move(attributes));
  return stmt;
}

Result<CreateSetStmt> Parser::ParseCreateSet() {
  Advance();  // create
  CreateSetStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&stmt.set_name));
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol(":"));
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol("{"));
  if (!ConsumeKeyword("own")) return ErrorHere("expected 'own'");
  if (!ConsumeKeyword("ref")) return ErrorHere("expected 'ref'");
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&stmt.type_name));
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol("}"));
  return stmt;
}

Status Parser::ParseDottedName(std::string* out) {
  std::string name;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&name));
  while (ConsumeSymbol(".")) {
    std::string part;
    FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&part));
    name += "." + part;
  }
  *out = std::move(name);
  return Status::OK();
}

Result<ReplicateStmt> Parser::ParseReplicate() {
  Advance();  // replicate
  ReplicateStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ParseDottedName(&stmt.spec));
  for (;;) {
    if (ConsumeKeyword("using")) {
      if (ConsumeKeyword("separate")) {
        stmt.options.strategy = ReplicationStrategy::kSeparate;
      } else if (ConsumeKeyword("inplace")) {
        stmt.options.strategy = ReplicationStrategy::kInPlace;
      } else {
        return ErrorHere("expected 'inplace' or 'separate' after 'using'");
      }
      continue;
    }
    if (ConsumeKeyword("collapsed")) {
      stmt.options.collapsed = true;
      continue;
    }
    if (ConsumeKeyword("clustered")) {
      stmt.options.cluster_links = true;
      continue;
    }
    if (ConsumeKeyword("inline")) {
      if (Peek().kind != TokenKind::kInteger) {
        return ErrorHere("expected an inline threshold");
      }
      stmt.options.inline_threshold =
          static_cast<uint32_t>(Advance().int_value);
      continue;
    }
    break;
  }
  return stmt;
}

Result<BuildIndexStmt> Parser::ParseBuildIndex() {
  Advance();  // build
  if (!ConsumeKeyword("btree")) return ErrorHere("expected 'btree'");
  BuildIndexStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&stmt.index_name));
  if (!ConsumeKeyword("on")) return ErrorHere("expected 'on'");
  std::string dotted;
  FIELDREP_RETURN_IF_ERROR(ParseDottedName(&dotted));
  size_t dot = dotted.find('.');
  if (dot == std::string::npos) {
    return ErrorHere("index key must be Set.attribute or Set.path");
  }
  stmt.set_name = dotted.substr(0, dot);
  stmt.key_expr = dotted.substr(dot + 1);
  if (ConsumeKeyword("clustered")) stmt.clustered = true;
  return stmt;
}

Result<Operand> Parser::ParseOperand() {
  Operand operand;
  const Token& token = Peek();
  switch (token.kind) {
    case TokenKind::kInteger:
      operand.kind = Operand::Kind::kInteger;
      operand.int_value = token.int_value;
      Advance();
      return operand;
    case TokenKind::kFloat:
      operand.kind = Operand::Kind::kFloat;
      operand.float_value = token.float_value;
      Advance();
      return operand;
    case TokenKind::kString:
      operand.kind = Operand::Kind::kString;
      operand.text = token.text;
      Advance();
      return operand;
    case TokenKind::kVariable:
      operand.kind = Operand::Kind::kVariable;
      operand.text = token.text;
      Advance();
      return operand;
    default:
      if (token.IsKeyword("null")) {
        Advance();
        operand.kind = Operand::Kind::kNull;
        return operand;
      }
      return ErrorHere("expected a literal, $variable, or null");
  }
}

Status Parser::ParseAssignmentList(
    std::vector<std::pair<std::string, Operand>>* out) {
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol("("));
  do {
    std::string attr;
    FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&attr));
    FIELDREP_RETURN_IF_ERROR(ExpectSymbol("="));
    FIELDREP_ASSIGN_OR_RETURN(Operand operand, ParseOperand());
    out->emplace_back(std::move(attr), std::move(operand));
  } while (ConsumeSymbol(","));
  return ExpectSymbol(")");
}

Result<InsertStmt> Parser::ParseInsert() {
  Advance();  // insert
  InsertStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&stmt.set_name));
  FIELDREP_RETURN_IF_ERROR(ParseAssignmentList(&stmt.fields));
  if (ConsumeKeyword("as")) {
    if (Peek().kind != TokenKind::kVariable) {
      return ErrorHere("expected a $variable after 'as'");
    }
    stmt.bind_variable = Advance().text;
  }
  return stmt;
}

Result<WhereClause> Parser::ParseWhere(bool strip_set_prefix,
                                       const std::string& set_name) {
  WhereClause where;
  std::string attr;
  FIELDREP_RETURN_IF_ERROR(ParseDottedName(&attr));
  if (strip_set_prefix && StartsWith(attr, set_name + ".")) {
    attr = attr.substr(set_name.size() + 1);
  }
  // Plain attributes and dotted reference paths are both allowed; path
  // clauses are answered through replicas or path indexes (Section 3.3.4).
  where.attr_name = attr;
  const Token& op = Peek();
  if (op.IsKeyword("between")) {
    Advance();
    where.op = CompareOp::kBetween;
    FIELDREP_ASSIGN_OR_RETURN(where.operand, ParseOperand());
    if (!ConsumeKeyword("and")) return ErrorHere("expected 'and'");
    FIELDREP_ASSIGN_OR_RETURN(where.operand2, ParseOperand());
    return where;
  }
  if (ConsumeSymbol("=")) {
    where.op = CompareOp::kEq;
  } else if (ConsumeSymbol("<=")) {
    where.op = CompareOp::kLe;
  } else if (ConsumeSymbol(">=")) {
    where.op = CompareOp::kGe;
  } else if (ConsumeSymbol("<")) {
    where.op = CompareOp::kLt;
  } else if (ConsumeSymbol(">")) {
    where.op = CompareOp::kGt;
  } else {
    return ErrorHere("expected a comparison operator");
  }
  FIELDREP_ASSIGN_OR_RETURN(where.operand, ParseOperand());
  return where;
}

Result<RetrieveStmt> Parser::ParseRetrieve() {
  Advance();  // retrieve
  RetrieveStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol("("));
  std::vector<std::string> raw;
  do {
    std::string projection;
    FIELDREP_RETURN_IF_ERROR(ParseDottedName(&projection));
    raw.push_back(std::move(projection));
  } while (ConsumeSymbol(","));
  FIELDREP_RETURN_IF_ERROR(ExpectSymbol(")"));
  // All projections must share one set prefix: retrieve (Emp1.name, ...).
  for (const std::string& projection : raw) {
    size_t dot = projection.find('.');
    if (dot == std::string::npos) {
      return ErrorHere("projections must be Set.attribute or Set.path");
    }
    std::string set_name = projection.substr(0, dot);
    if (stmt.set_name.empty()) {
      stmt.set_name = set_name;
    } else if (stmt.set_name != set_name) {
      return ErrorHere("all projections must target the same set");
    }
    stmt.projections.push_back(projection.substr(dot + 1));
  }
  if (ConsumeKeyword("where")) {
    FIELDREP_ASSIGN_OR_RETURN(WhereClause where,
                              ParseWhere(true, stmt.set_name));
    stmt.where = std::move(where);
  }
  return stmt;
}

Result<ReplaceStmt> Parser::ParseReplace() {
  Advance();  // replace
  ReplaceStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&stmt.set_name));
  FIELDREP_RETURN_IF_ERROR(ParseAssignmentList(&stmt.assignments));
  if (ConsumeKeyword("where")) {
    FIELDREP_ASSIGN_OR_RETURN(WhereClause where,
                              ParseWhere(true, stmt.set_name));
    stmt.where = std::move(where);
  }
  return stmt;
}

Result<DeleteStmt> Parser::ParseDelete() {
  Advance();  // delete
  ConsumeKeyword("from");
  DeleteStmt stmt;
  FIELDREP_RETURN_IF_ERROR(ExpectIdentifier(&stmt.set_name));
  if (ConsumeKeyword("where")) {
    FIELDREP_ASSIGN_OR_RETURN(WhereClause where,
                              ParseWhere(true, stmt.set_name));
    stmt.where = std::move(where);
  }
  return stmt;
}

}  // namespace fieldrep::extra
