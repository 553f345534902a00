#ifndef FIELDREP_EXTRA_PARSER_H_
#define FIELDREP_EXTRA_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "extra/ast.h"
#include "extra/lexer.h"

namespace fieldrep::extra {

/// \brief Recursive-descent parser for the EXTRA-flavoured statement
/// language. Statements are separated by ';' (a trailing ';' is optional).
///
/// Supported statements (Section 2's schema syntax plus the minimal DML the
/// paper's examples use):
///   define type T ( a: int, b: char[20], c: ref U, d: int64, e: double,
///                   f: string )
///   create SetName: {own ref T}
///   replicate Set.a.b [using inplace|separate] [collapsed] [inline N]
///                     [clustered]
///   drop replicate Set.a.b
///   build btree IndexName on Set.key[.path] [clustered]
///   insert Set (a = 1, c = $x) [as $y]
///   retrieve (Set.a, Set.b.c) [where Set.a > 5]
///   replace Set (a = 1) [where a = 2]
///   delete from Set [where a = 2]
///   show catalog
///   verify Set.a.b
class Parser {
 public:
  /// Parses a script into statements.
  static Result<std::vector<Statement>> Parse(const std::string& input);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool ConsumeSymbol(const char* symbol);
  bool ConsumeKeyword(const char* keyword);
  Status ExpectSymbol(const char* symbol);
  Status ExpectIdentifier(std::string* text);
  Status ErrorHere(const std::string& message) const;

  Result<Statement> ParseStatement();
  Result<DefineTypeStmt> ParseDefineType();
  Result<CreateSetStmt> ParseCreateSet();
  Result<ReplicateStmt> ParseReplicate();
  Result<BuildIndexStmt> ParseBuildIndex();
  Result<InsertStmt> ParseInsert();
  Result<RetrieveStmt> ParseRetrieve();
  Result<ReplaceStmt> ParseReplace();
  Result<DeleteStmt> ParseDelete();

  Status ParseDottedName(std::string* out);
  Result<Operand> ParseOperand();
  Result<WhereClause> ParseWhere(bool strip_set_prefix,
                                 const std::string& set_name);
  Status ParseAssignmentList(
      std::vector<std::pair<std::string, Operand>>* out);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace fieldrep::extra

#endif  // FIELDREP_EXTRA_PARSER_H_
