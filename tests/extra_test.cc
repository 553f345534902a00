#include "common/random.h"
#include "extra/interpreter.h"
#include "extra/lexer.h"
#include "extra/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep::extra {
namespace {

#define FR_ASSERT_RESULT(decl, expr)                    \
  auto decl##_or = (expr);                              \
  ASSERT_TRUE(decl##_or.ok()) << decl##_or.status().ToString(); \
  auto& decl = *decl##_or

// --- Lexer ----------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  std::vector<Token> tokens;
  FR_ASSERT_OK(Tokenize("define type EMP ( salary: int )", &tokens));
  ASSERT_EQ(tokens.size(), 9u);  // incl. kEnd
  EXPECT_TRUE(tokens[0].IsKeyword("DEFINE"));
  EXPECT_TRUE(tokens[3].IsSymbol("("));
  EXPECT_TRUE(tokens[5].IsSymbol(":"));
}

TEST(LexerTest, NumbersStringsVariables) {
  std::vector<Token> tokens;
  FR_ASSERT_OK(Tokenize("42 -7 3.25 \"hi there\" 'x' $dept1", &tokens));
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].int_value, -7);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 3.25);
  EXPECT_EQ(tokens[3].text, "hi there");
  EXPECT_EQ(tokens[4].text, "x");
  EXPECT_EQ(tokens[5].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[5].text, "dept1");
}

TEST(LexerTest, DottedPathsKeepIntegerApart) {
  std::vector<Token> tokens;
  FR_ASSERT_OK(Tokenize("Emp1.dept.name", &tokens));
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].text, "Emp1");
  EXPECT_TRUE(tokens[1].IsSymbol("."));
  EXPECT_EQ(tokens[2].text, "dept");
}

TEST(LexerTest, CommentsAndErrors) {
  std::vector<Token> tokens;
  FR_ASSERT_OK(Tokenize("a -- comment to eol\n b", &tokens));
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_FALSE(Tokenize("\"unterminated", &tokens).ok());
  EXPECT_FALSE(Tokenize("$ alone", &tokens).ok());
  EXPECT_FALSE(Tokenize("what?", &tokens).ok());
}

TEST(LexerTest, TwoCharSymbols) {
  std::vector<Token> tokens;
  FR_ASSERT_OK(Tokenize("a <= b >= c", &tokens));
  EXPECT_TRUE(tokens[1].IsSymbol("<="));
  EXPECT_TRUE(tokens[3].IsSymbol(">="));
}

// --- Parser ----------------------------------------------------------------------

TEST(ParserTest, DefineType) {
  FR_ASSERT_RESULT(stmts, Parser::Parse(
      "define type DEPT ( name: char[20], budget: int, org: ref ORG )"));
  ASSERT_EQ(stmts.size(), 1u);
  const auto& stmt = std::get<DefineTypeStmt>(stmts[0]);
  EXPECT_EQ(stmt.type.name(), "DEPT");
  ASSERT_EQ(stmt.type.attribute_count(), 3u);
  EXPECT_EQ(stmt.type.attribute(0).char_length, 20u);
  EXPECT_EQ(stmt.type.attribute(2).ref_type, "ORG");
}

TEST(ParserTest, CreateAndReplicateOptions) {
  FR_ASSERT_RESULT(stmts, Parser::Parse(
      "create Emp1: {own ref EMP};"
      "replicate Emp1.dept.name using separate inline 3;"
      "replicate Emp1.dept.org.name collapsed"));
  ASSERT_EQ(stmts.size(), 3u);
  const auto& create = std::get<CreateSetStmt>(stmts[0]);
  EXPECT_EQ(create.set_name, "Emp1");
  const auto& rep1 = std::get<ReplicateStmt>(stmts[1]);
  EXPECT_EQ(rep1.spec, "Emp1.dept.name");
  EXPECT_EQ(rep1.options.strategy, ReplicationStrategy::kSeparate);
  EXPECT_EQ(rep1.options.inline_threshold, 3u);
  const auto& rep2 = std::get<ReplicateStmt>(stmts[2]);
  EXPECT_TRUE(rep2.options.collapsed);
}

TEST(ParserTest, RetrieveAndWhere) {
  FR_ASSERT_RESULT(stmts, Parser::Parse(
      "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) "
      "where Emp1.salary > 100000"));
  const auto& stmt = std::get<RetrieveStmt>(stmts[0]);
  EXPECT_EQ(stmt.set_name, "Emp1");
  EXPECT_EQ(stmt.projections,
            (std::vector<std::string>{"name", "salary", "dept.name"}));
  ASSERT_TRUE(stmt.where.has_value());
  EXPECT_EQ(stmt.where->attr_name, "salary");
  EXPECT_EQ(stmt.where->op, CompareOp::kGt);
  EXPECT_EQ(stmt.where->operand.int_value, 100000);
}

TEST(ParserTest, RetrieveRejectsMixedSets) {
  EXPECT_FALSE(Parser::Parse("retrieve (Emp1.name, Emp2.name)").ok());
}

TEST(ParserTest, DeferredOption) {
  // Propagation is always eager; the old 'deferred' option is a parse error.
  auto r = Parser::Parse("replicate Emp1.dept.name deferred");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("deferred"), std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, WhereOnReferencePath) {
  FR_ASSERT_RESULT(stmts, Parser::Parse(
      "retrieve (Emp1.name) where Emp1.dept.org.name = \"acme\""));
  const auto& stmt = std::get<RetrieveStmt>(stmts[0]);
  ASSERT_TRUE(stmt.where.has_value());
  EXPECT_EQ(stmt.where->attr_name, "dept.org.name");
}

TEST(ParserTest, InsertReplaceDelete) {
  FR_ASSERT_RESULT(stmts, Parser::Parse(
      "insert Dept (name = \"toys\", budget = 5) as $d;"
      "replace Dept (budget = 6) where name = \"toys\";"
      "delete from Dept where budget between 1 and 10"));
  const auto& insert = std::get<InsertStmt>(stmts[0]);
  EXPECT_EQ(insert.bind_variable, "d");
  ASSERT_EQ(insert.fields.size(), 2u);
  const auto& replace = std::get<ReplaceStmt>(stmts[1]);
  ASSERT_TRUE(replace.where.has_value());
  const auto& del = std::get<DeleteStmt>(stmts[2]);
  EXPECT_EQ(del.where->op, CompareOp::kBetween);
}

TEST(ParserTest, FuzzNeverCrashes) {
  // Random byte soup and random token soup must produce a Status, never a
  // crash or hang.
  Random rng(0xF422);
  const char* fragments[] = {"define", "type",  "(",     ")",    ":",
                             "int",    "char",  "[",     "]",    "20",
                             "ref",    "create", "{",    "}",    "own",
                             "replicate", ".",  "retrieve", "where", ">",
                             "insert", "=",     "\"x\"", "$v",   ";",
                             "between", "and",  "-5",    "3.5",  "all"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    int pieces = 1 + static_cast<int>(rng.Uniform(25));
    for (int i = 0; i < pieces; ++i) {
      input += fragments[rng.Uniform(std::size(fragments))];
      input += rng.Bernoulli(0.8) ? " " : "";
    }
    auto result = Parser::Parse(input);  // outcome irrelevant; no crash
    (void)result;
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    int bytes = static_cast<int>(rng.Uniform(60));
    for (int i = 0; i < bytes; ++i) {
      input.push_back(static_cast<char>(32 + rng.Uniform(95)));
    }
    auto result = Parser::Parse(input);
    (void)result;
  }
}

TEST(ParserTest, ErrorsAreDescriptive) {
  auto r = Parser::Parse("retrieve Emp1.name");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expected"), std::string::npos);
  EXPECT_FALSE(Parser::Parse("frobnicate Emp1").ok());
  EXPECT_FALSE(Parser::Parse("define type T ( x: blob )").ok());
  EXPECT_FALSE(Parser::Parse("insert Dept (name = )").ok());
}

// --- Interpreter (end-to-end, the paper's running example) -------------------------

class InterpreterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db_or = Database::Open({});
    ASSERT_TRUE(db_or.ok());
    db_ = std::move(db_or).value();
    interp_ = std::make_unique<Interpreter>(db_.get());
  }

  std::string MustRun(const std::string& script) {
    auto out = interp_->Execute(script);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << "\nscript: " << script;
    return out.ok() ? *out : "";
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Interpreter> interp_;
};

TEST_F(InterpreterTest, PaperRunningExample) {
  MustRun(
      "define type ORG ( name: char[20], budget: int );"
      "define type DEPT ( name: char[20], budget: int, org: ref ORG );"
      "define type EMP ( name: char[20], age: int, salary: int, "
      "                  dept: ref DEPT );"
      "create Org: {own ref ORG};"
      "create Dept: {own ref DEPT};"
      "create Emp1: {own ref EMP};"
      "create Emp2: {own ref EMP};");
  MustRun(
      "insert Org (name = \"acme\", budget = 100) as $o1;"
      "insert Dept (name = \"toys\", budget = 10, org = $o1) as $d1;"
      "insert Dept (name = \"shoes\", budget = 20, org = $o1) as $d2;"
      "insert Emp1 (name = \"fred\", age = 40, salary = 120000, "
      "             dept = $d1) as $e1;"
      "insert Emp1 (name = \"sue\", age = 35, salary = 150000, dept = $d2);"
      "insert Emp1 (name = \"ann\", age = 25, salary = 90000, dept = $d1);");
  std::string out = MustRun("replicate Emp1.dept.name");
  EXPECT_NE(out.find("link sequence"), std::string::npos);
  // The paper's example query (Section 3.1).
  out = MustRun(
      "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) "
      "where Emp1.salary > 100000");
  EXPECT_NE(out.find("fred"), std::string::npos);
  EXPECT_NE(out.find("sue"), std::string::npos);
  EXPECT_EQ(out.find("ann"), std::string::npos);
  EXPECT_NE(out.find("toys"), std::string::npos);
  EXPECT_NE(out.find("(2 rows)"), std::string::npos);
  // Update propagates through the hidden replica.
  MustRun("replace Dept (name = \"games\") where name = \"toys\"");
  out = MustRun("verify Emp1.dept.name");
  EXPECT_NE(out.find("consistent"), std::string::npos);
  out = MustRun("retrieve (Emp1.dept.name) where Emp1.name = \"fred\"");
  EXPECT_NE(out.find("games"), std::string::npos);
}

TEST_F(InterpreterTest, TwoLevelPathAndIndex) {
  MustRun(
      "define type ORG ( name: char[20], budget: int );"
      "define type DEPT ( name: char[20], budget: int, org: ref ORG );"
      "define type EMP ( name: char[20], age: int, salary: int, "
      "                  dept: ref DEPT );"
      "create Org: {own ref ORG}; create Dept: {own ref DEPT};"
      "create Emp1: {own ref EMP};"
      "insert Org (name = \"acme\", budget = 1) as $o;"
      "insert Dept (name = \"d\", budget = 1, org = $o) as $d;"
      "insert Emp1 (name = \"e1\", age = 1, salary = 1, dept = $d);"
      "replicate Emp1.dept.org.name;"
      "build btree org_idx on Emp1.dept.org.name;");
  std::string out =
      MustRun("retrieve (Emp1.name) where Emp1.salary >= 0");
  EXPECT_NE(out.find("e1"), std::string::npos);
  out = MustRun("show catalog");
  EXPECT_NE(out.find("replicate Emp1.dept.org.name"), std::string::npos);
  EXPECT_NE(out.find("org_idx"), std::string::npos);
  MustRun("drop replicate Emp1.dept.org.name");
  out = MustRun("show catalog");
  EXPECT_EQ(out.find("replicate Emp1.dept.org.name"), std::string::npos);
}

TEST_F(InterpreterTest, DeleteStatement) {
  MustRun(
      "define type T ( v: int );"
      "create Things: {own ref T};"
      "insert Things (v = 1); insert Things (v = 2); insert Things (v = 3);");
  std::string out = MustRun("delete from Things where v >= 2");
  EXPECT_NE(out.find("deleted 2"), std::string::npos);
  out = MustRun("retrieve (Things.v)");
  EXPECT_NE(out.find("(1 row)"), std::string::npos);
}

TEST_F(InterpreterTest, CheckpointStatement) {
  MustRun(
      "define type T ( v: int );"
      "create Things: {own ref T};"
      "insert Things (v = 1);");
  std::string out = MustRun("checkpoint");
  EXPECT_NE(out.find("checkpoint written"), std::string::npos);
}

TEST_F(InterpreterTest, UnknownVariableFails) {
  MustRun(
      "define type T ( v: int, r: ref T );"
      "create Things: {own ref T};");
  auto out = interp_->Execute("insert Things (v = 1, r = $ghost)");
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace fieldrep::extra
