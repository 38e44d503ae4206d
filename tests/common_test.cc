#include <gtest/gtest.h>

#include <set>
#include <string>

#include "test_util.h"
#include "whynot/common/algorithm.h"
#include "whynot/common/parallel.h"
#include "whynot/common/status.h"
#include "whynot/common/strings.h"
#include "whynot/common/value.h"

namespace whynot {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  Value i(42);
  Value d(3.5);
  Value s("hello");
  EXPECT_EQ(i.kind(), Value::Kind::kInt);
  EXPECT_EQ(d.kind(), Value::Kind::kDouble);
  EXPECT_EQ(s.kind(), Value::Kind::kString);
  EXPECT_TRUE(i.is_number());
  EXPECT_TRUE(d.is_number());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_DOUBLE_EQ(d.AsNumber(), 3.5);
  EXPECT_EQ(s.AsString(), "hello");
}

TEST(ValueTest, NumericEqualityAcrossKinds) {
  EXPECT_EQ(Value(5), Value(5.0));
  EXPECT_NE(Value(5), Value(5.5));
  EXPECT_EQ(Value(5).Hash(), Value(5.0).Hash());
}

TEST(ValueTest, TotalOrderNumbersBeforeStrings) {
  EXPECT_LT(Value(10), Value(2.5e10));
  EXPECT_LT(Value(1000000), Value("a"));
  EXPECT_LT(Value(-5.0), Value("0"));  // the *string* "0"
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("abc"), Value("abca"));
}

TEST(ValueTest, OrderIsConsistent) {
  std::vector<Value> vals = {Value("b"), Value(3), Value("a"), Value(2.5),
                             Value(-1), Value("a0")};
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(vals[0], Value(-1));
  EXPECT_EQ(vals[1], Value(2.5));
  EXPECT_EQ(vals[2], Value(3));
  EXPECT_EQ(vals[3], Value("a"));
  EXPECT_EQ(vals[4], Value("a0"));
  EXPECT_EQ(vals[5], Value("b"));
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(5000000.0).ToString(), "5000000");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value("x").ToLiteral(), "\"x\"");
  EXPECT_EQ(Value(7).ToLiteral(), "7");
}

TEST(ValueTest, DensityBetweenNumbers) {
  // The dense-order substitution documented in DESIGN.md: between any two
  // numbers there is another number.
  Value a(1);
  Value b(2);
  Value mid(1.5);
  EXPECT_LT(a, mid);
  EXPECT_LT(mid, b);
}

TEST(ValuePoolTest, InternIsIdempotent) {
  ValuePool pool;
  ValueId a = pool.Intern(Value("x"));
  ValueId b = pool.Intern(Value("y"));
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern(Value("x")), a);
  EXPECT_EQ(pool.size(), 2);
  EXPECT_EQ(pool.Get(a), Value("x"));
  EXPECT_EQ(pool.Lookup(Value("y")), b);
  EXPECT_EQ(pool.Lookup(Value("z")), -1);
}

TEST(ValuePoolTest, NumericAliasesShareIds) {
  ValuePool pool;
  EXPECT_EQ(pool.Intern(Value(5)), pool.Intern(Value(5.0)));
}

TEST(TupleTest, ToStringAndHash) {
  Tuple t = {Value("a"), Value(1)};
  EXPECT_EQ(TupleToString(t), "(a, 1)");
  Tuple u = {Value("a"), Value(1)};
  EXPECT_EQ(TupleHash()(t), TupleHash()(u));
}

TEST(AlgorithmTest, InsertAtPositionsMergesIntoSortedVector) {
  std::vector<std::string> inserted;
  auto make = [&](size_t a) { return inserted[a]; };
  std::vector<std::string> v = {"b", "d", "f"};
  // New rows a, c, g: they land at 0, 2 (after b) and 5 (after f).
  inserted = {"a", "c", "g"};
  InsertAtPositions(&v, {0, 2, 5}, make);
  EXPECT_EQ(v, (std::vector<std::string>{"a", "b", "c", "d", "f", "g"}));
  // Adjacent insertions, and nothing inserted.
  inserted = {"e1", "e2"};
  InsertAtPositions(&v, {4, 5}, make);
  EXPECT_EQ(v, (std::vector<std::string>{"a", "b", "c", "d", "e1", "e2",
                                         "f", "g"}));
  InsertAtPositions(&v, {}, make);
  EXPECT_EQ(v.size(), 8u);
  // Into an empty vector every position is new.
  std::vector<std::string> empty;
  inserted = {"x", "y"};
  InsertAtPositions(&empty, {0, 1}, make);
  EXPECT_EQ(empty, (std::vector<std::string>{"x", "y"}));
}

TEST(ParallelTest, SetNumThreadsClampsLikeTheEnvironment) {
  // Reads the setting only: no parallel region runs, so no worker spawns.
  par::SetNumThreads(1000);
  EXPECT_EQ(par::NumThreads(), 256);
  par::SetNumThreads(0);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(*ok, 7);
  Result<int> err(Status::NotFound("gone"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MovedOutResultReportsInternal) {
  Result<std::string> r(std::string("a value longer than the SSO buffer"));
  ASSERT_TRUE(r.ok());
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "a value longer than the SSO buffer");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(r.status().message().empty());
  // Every consumed Result reports the same shared status object: marking
  // the consumption allocates nothing.
  Result<int> other(3);
  (void)std::move(other).value();
  EXPECT_EQ(&other.status(), &r.status());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto f = [](bool fail) -> Result<int> {
    if (fail) return Status::InvalidArgument("fail");
    return 5;
  };
  auto g = [&](bool fail) -> Result<int> {
    WHYNOT_ASSIGN_OR_RETURN(int v, f(fail));
    return v + 1;
  };
  EXPECT_EQ(g(false).value(), 6);
  EXPECT_FALSE(g(true).ok());
}

TEST(StringsTest, JoinSplitTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

}  // namespace
}  // namespace whynot
