// Tests for the relational layer: values, tuples, schemas, expressions.

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/relational/expression.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/relational/value.h"

// This binary counts every global allocation, so a test can assert that a
// row operation makes none. The replacements stay out of line: inlined into
// a container's destructor, GCC's -Wmismatched-new-delete misreads the
// `free` as releasing memory from the standard `operator new`.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace pipes::relational {
namespace {

static_assert(sizeof(Value) == 16);

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(std::int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).AsDouble(), 3.0);  // promotion
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(Value, EqualityWithNumericPromotion) {
  EXPECT_EQ(Value(std::int64_t{3}), Value(3.0));
  EXPECT_NE(Value(std::int64_t{3}), Value(3.5));
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(std::int64_t{0}));
}

TEST(Value, HashConsistentWithPromotionEquality) {
  EXPECT_EQ(Value(std::int64_t{7}).Hash(), Value(7.0).Hash());
}

TEST(Value, Ordering) {
  EXPECT_LT(Value(std::int64_t{1}), Value(2.5));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value::Null(), Value(std::int64_t{0}));
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_TRUE(Value(std::int64_t{1}).Truthy());
  EXPECT_FALSE(Value(0.0).Truthy());
  EXPECT_TRUE(Value(true).Truthy());
}

TEST(Tuple, FieldsConcatProject) {
  Tuple t{Value(std::int64_t{1}), Value("x"), Value(2.5)};
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t.field(1).AsString(), "x");

  Tuple u{Value(true)};
  Tuple cat = t.Concat(u);
  EXPECT_EQ(cat.arity(), 4u);
  EXPECT_TRUE(cat.field(3).AsBool());

  Tuple proj = t.Project({2, 0});
  EXPECT_EQ(proj.arity(), 2u);
  EXPECT_DOUBLE_EQ(proj.field(0).AsDouble(), 2.5);
  EXPECT_EQ(proj.field(1).AsInt(), 1);
}

TEST(Tuple, HashAndEquality) {
  Tuple a{Value(std::int64_t{1}), Value("x")};
  Tuple b{Value(std::int64_t{1}), Value("x")};
  Tuple c{Value(std::int64_t{2}), Value("x")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
}

// Rows of `n` distinct int fields, starting at `first`.
Tuple IntRow(std::size_t n, std::int64_t first = 0) {
  Tuple t;
  for (std::size_t i = 0; i < n; ++i) {
    t.Append(Value(first + static_cast<std::int64_t>(i)));
  }
  return t;
}

TEST(Value, StringCopyMoveAndSelfAssignment) {
  Value a(std::string("a string longer than the small-string buffer"));
  Value b = a;  // shares the block
  EXPECT_EQ(&a.AsString(), &b.AsString());
  Value c = std::move(b);
  EXPECT_TRUE(b.is_null());  // NOLINT(bugprone-use-after-move): pinned
  EXPECT_EQ(&c.AsString(), &a.AsString());

  const Value& alias = a;
  a = alias;  // self copy-assignment keeps the string alive
  EXPECT_EQ(a.AsString(), "a string longer than the small-string buffer");
  Value& self = c;
  c = std::move(self);  // self move-assignment too
  EXPECT_EQ(c.AsString(), "a string longer than the small-string buffer");

  Value d(std::int64_t{5});
  d = a;  // int <- string
  EXPECT_EQ(d.AsString(), a.AsString());
  d = Value(2.5);  // string <- double releases one reference
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  a = c;  // two owners of the same block
  EXPECT_EQ(&a.AsString(), &c.AsString());
  EXPECT_EQ(a, c);
}

TEST(Tuple, SharedStringOutlivesEitherRow) {
  std::optional<Tuple> first =
      Tuple{Value(std::string("shared by two rows, longer than SSO")),
            Value(std::int64_t{1})};
  std::optional<Tuple> second = *first;
  const std::string* text = &second->field(0).AsString();
  EXPECT_EQ(&first->field(0).AsString(), text);
  first.reset();
  EXPECT_EQ(second->field(0).AsString(), "shared by two rows, longer than SSO");
  Tuple third = second->Project({0});
  second.reset();
  EXPECT_EQ(&third.field(0).AsString(), text);
  EXPECT_EQ(third.field(0).AsString(), "shared by two rows, longer than SSO");
}

TEST(Tuple, CrossesTheInlineBoundBothWays) {
  constexpr std::size_t kN = Tuple::kInlineFields;
  // Append past the bound moves the values into a heap block.
  Tuple grown = IntRow(kN);
  EXPECT_EQ(grown.HeapBytes(), 0u);
  grown.Append(Value("tail"));
  EXPECT_GT(grown.HeapBytes(), 0u);
  ASSERT_EQ(grown.arity(), kN + 1);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(grown.field(i).AsInt(), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(grown.field(kN).AsString(), "tail");

  // Concat of two inline rows lands on the heap, in one exact block.
  const Tuple left = IntRow(kN - 1, 100);
  const Tuple right = IntRow(2, 200);
  const Tuple joined = left.Concat(right);
  ASSERT_EQ(joined.arity(), kN + 1);
  EXPECT_EQ(joined.HeapBytes(), (kN + 1) * sizeof(Value));
  EXPECT_EQ(joined.field(kN - 2).AsInt(), 100 + std::int64_t{kN} - 2);
  EXPECT_EQ(joined.field(kN).AsInt(), 201);

  // Projecting a heap row narrow comes back inline, and wide stays heap.
  const Tuple narrow = joined.Project({kN, 0});
  EXPECT_EQ(narrow.HeapBytes(), 0u);
  EXPECT_EQ(narrow, (Tuple{Value(std::int64_t{201}), Value(std::int64_t{100})}));
  std::vector<std::size_t> all(kN + 1);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = all.size() - 1 - i;
  const Tuple reversed = joined.Project(all);
  EXPECT_GT(reversed.HeapBytes(), 0u);
  EXPECT_EQ(reversed.field(0), joined.field(kN));

  // Copies and moves keep either form intact.
  Tuple copy = joined;
  EXPECT_EQ(copy, joined);
  Tuple moved = std::move(copy);
  EXPECT_EQ(moved, joined);
  EXPECT_EQ(copy.arity(), 0u);  // NOLINT(bugprone-use-after-move): pinned
  moved = narrow;  // heap <- inline
  EXPECT_EQ(moved, narrow);
  EXPECT_EQ(moved.HeapBytes(), 0u);
  moved = joined;  // inline <- heap
  EXPECT_EQ(moved, joined);
}

TEST(Tuple, InlineAndHeapFormsCompareAndHashAlike) {
  const Tuple inline_row{Value(std::int64_t{3}), Value("x"), Value(1.5)};
  Tuple heap_row;
  heap_row.Reserve(Tuple::kInlineFields + 4);
  for (const Value& v : inline_row.values()) heap_row.Append(v);
  ASSERT_EQ(inline_row.HeapBytes(), 0u);
  ASSERT_GT(heap_row.HeapBytes(), 0u);

  EXPECT_EQ(inline_row, heap_row);
  EXPECT_EQ(inline_row.Hash(), heap_row.Hash());
  EXPECT_FALSE(inline_row < heap_row);
  EXPECT_FALSE(heap_row < inline_row);
  EXPECT_EQ(inline_row.ToString(), heap_row.ToString());

  const Tuple greater{Value(std::int64_t{3}), Value("y")};
  EXPECT_EQ(inline_row < greater, heap_row < greater);
  EXPECT_EQ(greater < inline_row, greater < heap_row);
  // Numeric promotion holds across the forms as well.
  Tuple promoted;
  promoted.Reserve(Tuple::kInlineFields + 1);
  promoted.Append(Value(3.0));
  promoted.Append(Value("x"));
  promoted.Append(Value(1.5));
  EXPECT_EQ(promoted, inline_row);
  EXPECT_EQ(promoted.Hash(), inline_row.Hash());
}

TEST(Tuple, NarrowRowsCopyProjectAndConcatWithoutAllocating) {
  // A string field is shared, not copied, so it allocates nothing either.
  const Tuple row{Value(std::int64_t{1}), Value(2.5), Value(true),
                  Value(std::string("a string longer than the SSO buffer"))};
  const Tuple key{Value(std::int64_t{7})};
  const std::vector<std::size_t> fields = {3, 0};
  const std::size_t before = g_allocations.load();
  std::size_t arity = 0;
  {
    Tuple copy = row;
    Tuple moved = std::move(copy);
    Tuple projected = row.Project(fields);
    Tuple joined = key.Concat(projected);
    Tuple assigned;
    assigned = joined;
    assigned = std::move(moved);
    arity = assigned.arity() + joined.arity();
  }
  const std::size_t narrow = g_allocations.load() - before;
  EXPECT_EQ(narrow, 0u);
  EXPECT_EQ(arity, 7u);

  // Past the bound, a row takes exactly one block.
  const std::size_t wide_before = g_allocations.load();
  {
    const Tuple wide = row.Concat(key);
    arity = wide.arity();
  }
  EXPECT_EQ(g_allocations.load() - wide_before, 1u);
  EXPECT_EQ(arity, 5u);
}

TEST(Tuple, ApproxPayloadBytesFollowsTheLayout) {
  // Inline values are counted once, in sizeof(Tuple).
  static_assert(sizeof(Tuple) == 8 + Tuple::kInlineFields * sizeof(Value));
  const Tuple inline_row = IntRow(Tuple::kInlineFields);
  EXPECT_EQ(sweeparea::ApproxPayloadBytes(inline_row), sizeof(Tuple));
  // A wider row adds its heap block.
  const Tuple heap_row = IntRow(2).Concat(IntRow(Tuple::kInlineFields));
  EXPECT_EQ(sweeparea::ApproxPayloadBytes(heap_row),
            sizeof(Tuple) + (Tuple::kInlineFields + 2) * sizeof(Value));
  // A string field adds its bytes.
  const Tuple text_row{Value("hello"), Value(std::int64_t{1})};
  EXPECT_EQ(sweeparea::ApproxPayloadBytes(text_row), sizeof(Tuple) + 5);
}

// Two threads copy and destroy rows that share one string block, and each
// may drop its last reference; under TSAN this checks the count.
TEST(Tuple, RowsSharingAStringCopyAcrossThreads) {
  std::optional<Tuple> original =
      Tuple{Value(std::string("one block, many owners, no copies")),
            Value(std::int64_t{9})};
  auto churn = [](Tuple row) {
    std::size_t chars = 0;
    for (int i = 0; i < 2000; ++i) {
      const Tuple copy = row;
      Tuple key = copy.Project({0});
      chars += key.field(0).AsString().size();
    }
    return chars;
  };
  std::size_t chars_a = 0;
  std::size_t chars_b = 0;
  std::thread a([&, row = *original] { chars_a = churn(row); });
  std::thread b([&, row = *original] { chars_b = churn(row); });
  original.reset();
  a.join();
  b.join();
  EXPECT_EQ(chars_a, 2000u * 33u);
  EXPECT_EQ(chars_b, chars_a);
}

TEST(Schema, LookupQualifiedAndAmbiguous) {
  Schema s({{"a.id", ValueType::kInt},
            {"a.price", ValueType::kDouble},
            {"b.id", ValueType::kInt}});
  EXPECT_EQ(s.IndexOf("a.price"), 1u);
  EXPECT_EQ(s.IndexOf("price"), 1u);           // unique suffix
  EXPECT_EQ(s.IndexOf("id"), std::nullopt);    // ambiguous suffix
  EXPECT_EQ(s.IndexOf("nope"), std::nullopt);  // unknown
}

TEST(Schema, PrefixAndConcat) {
  Schema s({{"id", ValueType::kInt}});
  Schema p = s.WithPrefix("bids");
  EXPECT_EQ(p.field(0).name, "bids.id");
  Schema both = p.Concat(s);
  EXPECT_EQ(both.arity(), 2u);
}

TEST(Expression, ArithmeticIntAndDouble) {
  Tuple t{Value(std::int64_t{7}), Value(2.0)};
  auto seven = MakeField(0, "a");
  auto two = MakeField(1, "b");
  EXPECT_EQ(MakeBinary(BinaryOp::kAdd, seven, MakeLiteral(Value(std::int64_t{3})))
                ->Eval(t)
                .AsInt(),
            10);
  EXPECT_DOUBLE_EQ(MakeBinary(BinaryOp::kDiv, seven, two)->Eval(t).AsDouble(),
                   3.5);
  // Int division truncates.
  EXPECT_EQ(MakeBinary(BinaryOp::kDiv, seven,
                       MakeLiteral(Value(std::int64_t{2})))
                ->Eval(t)
                .AsInt(),
            3);
  // Division by zero yields NULL.
  EXPECT_TRUE(MakeBinary(BinaryOp::kDiv, seven,
                         MakeLiteral(Value(std::int64_t{0})))
                  ->Eval(t)
                  .is_null());
}

TEST(Expression, ComparisonsAndLogic) {
  Tuple t{Value(std::int64_t{5})};
  auto five = MakeField(0, "x");
  auto lit3 = MakeLiteral(Value(std::int64_t{3}));
  auto gt = MakeBinary(BinaryOp::kGt, five, lit3);
  EXPECT_TRUE(gt->Eval(t).AsBool());
  auto lt = MakeBinary(BinaryOp::kLt, five, lit3);
  EXPECT_FALSE(lt->Eval(t).AsBool());
  EXPECT_TRUE(MakeBinary(BinaryOp::kAnd, gt, MakeUnary(UnaryOp::kNot, lt))
                  ->Eval(t)
                  .AsBool());
  EXPECT_TRUE(MakeBinary(BinaryOp::kOr, lt, gt)->Eval(t).AsBool());
  // NULL comparisons are false.
  auto null_cmp = MakeBinary(BinaryOp::kEq, five, MakeLiteral(Value::Null()));
  EXPECT_FALSE(null_cmp->Eval(t).AsBool());
}

TEST(Expression, ConjunctSplitAndCombine) {
  auto a = MakeBinary(BinaryOp::kGt, MakeField(0, "x"),
                      MakeLiteral(Value(std::int64_t{1})));
  auto b = MakeBinary(BinaryOp::kLt, MakeField(1, "y"),
                      MakeLiteral(Value(std::int64_t{9})));
  auto c = MakeBinary(BinaryOp::kEq, MakeField(2, "z"),
                      MakeLiteral(Value(std::int64_t{5})));
  auto all = MakeBinary(BinaryOp::kAnd, MakeBinary(BinaryOp::kAnd, a, b), c);

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(all, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 3u);

  auto combined = CombineConjuncts(conjuncts);
  Tuple t{Value(std::int64_t{2}), Value(std::int64_t{3}),
          Value(std::int64_t{5})};
  EXPECT_TRUE(combined->Eval(t).AsBool());
  EXPECT_TRUE(all->Eval(t).AsBool());
}

TEST(Expression, RemapFields) {
  auto expr = MakeBinary(BinaryOp::kAdd, MakeField(2, "c"), MakeField(0, "a"));
  // Fields 0 and 2 move to 1 and 0.
  auto remapped = expr->RemapFields({1, -1, 0});
  ASSERT_NE(remapped, nullptr);
  Tuple t{Value(std::int64_t{10}), Value(std::int64_t{20})};
  EXPECT_EQ(remapped->Eval(t).AsInt(), 30);

  // Referencing an unavailable field fails the remap.
  auto bad = expr->RemapFields({-1, 0, 1});
  EXPECT_EQ(bad, nullptr);
}

TEST(Expression, CollectFieldRefs) {
  auto expr = MakeBinary(
      BinaryOp::kMul, MakeField(1, "x"),
      MakeBinary(BinaryOp::kAdd, MakeField(3, "y"), MakeField(1, "x")));
  std::vector<std::size_t> refs;
  expr->CollectFieldRefs(&refs);
  EXPECT_EQ(refs, (std::vector<std::size_t>{1, 3, 1}));
}

}  // namespace
}  // namespace pipes::relational
