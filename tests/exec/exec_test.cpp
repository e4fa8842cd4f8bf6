// Interpreter tests: functional loop-nest execution (bounds, steps, min
// clamps, accumulation) and host cost-model behaviour (register promotion,
// unroll amortization, cache-stall accounting).
#include <gtest/gtest.h>

#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "sim/system.hpp"

namespace tdo::exec {
namespace {

[[nodiscard]] Program program_from(const std::string& source) {
  auto fn = frontend::parse_kernel(source);
  EXPECT_TRUE(fn.is_ok()) << fn.status().to_string();
  return host_only_program(*fn);
}

TEST(InterpreterTest, ExecutesSimpleAssignments) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 8) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = 2.0 * A[i] + 1.0;
}
)");
  ASSERT_TRUE(interp.prepare(program).is_ok());
  ASSERT_TRUE(interp.set_array("A", std::vector<float>(8, 3.0f)).is_ok());
  ASSERT_TRUE(interp.run(program).is_ok());
  const auto result = interp.get_array("A");
  for (const float v : *result) EXPECT_FLOAT_EQ(v, 7.0f);
  EXPECT_EQ(interp.statements_executed(), 8u);
}

TEST(InterpreterTest, HandlesStepsAndNonZeroLowerBounds) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 10) {
  array float A[N];
  for (i = 2; i < N; i += 3)
    A[i] = 1.0;
}
)");
  ASSERT_TRUE(interp.run(program).is_ok());
  const auto a = *interp.get_array("A");
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(a[static_cast<std::size_t>(i)],
                    (i == 2 || i == 5 || i == 8) ? 1.0f : 0.0f)
        << i;
  }
}

TEST(InterpreterTest, MinBoundClampsTailTiles) {
  using namespace ir;  // NOLINT: builder DSL
  Function fn;
  fn.name = "tail";
  fn.arrays.push_back(ArrayDecl{"A", {10}});
  // for (ii = 0; ii < 10; ii += 4) for (i = ii; i < min(ii+4, 10); i++) A[i] = 1
  fn.body.push_back(make_loop(
      "ii", cst(0), Bound::of(cst(10)), 4,
      {make_loop("i", iv("ii"), Bound::min_of(iv("ii") + cst(4), cst(10)), 1,
                 {make_assign(ref("A", {iv("i")}), make_const(1.0))})}));
  ASSERT_TRUE(fn.validate().is_ok());

  sim::System system;
  Interpreter interp{system, nullptr};
  ASSERT_TRUE(interp.run(host_only_program(fn)).is_ok());
  const auto result = interp.get_array("A");
  for (const float v : *result) EXPECT_FLOAT_EQ(v, 1.0f);
  EXPECT_EQ(interp.statements_executed(), 10u);  // not 12: tail clamped
}

TEST(InterpreterTest, ScalarParamsResolve) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 4, alpha = 2.5) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = alpha;
}
)");
  ASSERT_TRUE(interp.run(program).is_ok());
  const auto result = interp.get_array("A");
  for (const float v : *result) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(InterpreterTest, RuntimeCallWithoutRuntimeFails) {
  sim::System system;
  Interpreter interp{system, nullptr};
  Program program;
  program.items.push_back(CimInitOp{0});
  const auto status = interp.run(program);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), support::StatusCode::kFailedPrecondition);
}

TEST(InterpreterTest, UnknownArrayInSetArrayFails) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 4) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = 1.0;
}
)");
  ASSERT_TRUE(interp.prepare(program).is_ok());
  EXPECT_FALSE(interp.set_array("B", std::vector<float>(4)).is_ok());
  EXPECT_FALSE(interp.set_array("A", std::vector<float>(5)).is_ok());
}

// Out-of-bounds subscripts: each access site checks its flattened offset
// against the array, so a stray subscript fails the run with kOutOfRange
// naming the array instead of touching a neighbouring array (read past the
// end), an unmapped page, or aborting on an unchecked translation.
void expect_out_of_range_on_a(const std::string& source) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(source);
  ASSERT_TRUE(interp.prepare(program).is_ok());
  ASSERT_TRUE(interp.set_array("A", std::vector<float>(8, 1.0f)).is_ok());
  const auto status = interp.run(program);
  EXPECT_EQ(status.code(), support::StatusCode::kOutOfRange);
  EXPECT_NE(status.to_string().find("array A"), std::string::npos)
      << status.to_string();
}

TEST(InterpreterTest, LoadPastTheEndFailsInsteadOfReadingANeighbour) {
  expect_out_of_range_on_a(R"(
kernel k(N = 8) {
  array float A[N];
  array float B[N];
  for (i = 0; i < N; i++)
    B[i] = A[i + 1];
}
)");
}

TEST(InterpreterTest, StoreFarOutOfBoundsFailsWithOutOfRange) {
  expect_out_of_range_on_a(R"(
kernel k(N = 8) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i + 2000] = 1.0;
}
)");
}

TEST(InterpreterTest, LoadFromUnmappedPageFailsWithOutOfRange) {
  expect_out_of_range_on_a(R"(
kernel k(N = 8) {
  array float A[N];
  array float B[N];
  for (i = 0; i < N; i++)
    B[i] = A[i + 5000];
}
)");
}

// A subscript that overflows a non-leading dimension stays inside the array
// when flattened (A[0][4] is A[1][0]), so only the per-dimension check
// catches it: the run stops at the first such access, before B[0][3] is
// written, and names the array and the dimension.
TEST(InterpreterTest, InnerSubscriptPastItsDimensionFailsInsteadOfWrapping) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 4) {
  array float A[N][N];
  array float B[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      B[i][j] = A[i][j + 1];
}
)");
  ASSERT_TRUE(interp.prepare(program).is_ok());
  std::vector<float> a(16);
  for (std::size_t e = 0; e < a.size(); ++e) a[e] = static_cast<float>(e + 1);
  ASSERT_TRUE(interp.set_array("A", a).is_ok());
  const auto status = interp.run(program);
  EXPECT_EQ(status.code(), support::StatusCode::kOutOfRange);
  EXPECT_NE(status.to_string().find("array A dimension 1"), std::string::npos)
      << status.to_string();
  const auto b = interp.get_array("B");
  ASSERT_TRUE(b.is_ok());
  EXPECT_FLOAT_EQ((*b)[2], a[3]);   // B[0][2] = A[0][3], the last legal read
  EXPECT_FLOAT_EQ((*b)[3], 0.0f);   // B[0][3] = A[0][4] never happened
  EXPECT_EQ(interp.statements_executed(), 4u);
}

// --- cost model behaviour ---

[[nodiscard]] std::uint64_t run_and_count_insts(const std::string& source,
                                                CostModelParams cost) {
  sim::System system;
  Interpreter interp{system, nullptr, cost};
  const Program program = program_from(source);
  EXPECT_TRUE(interp.run(program).is_ok());
  return system.cpu().instructions();
}

TEST(CostModelTest, AccumulatorPromotionRemovesLhsTraffic) {
  const std::string reduction = R"(
kernel k(N = 64) {
  array float A[N][N];
  array float y[N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      y[i] += A[i][j] * A[i][j];
}
)";
  CostModelParams with;
  CostModelParams without;
  without.promote_accumulators = false;
  const auto promoted = run_and_count_insts(reduction, with);
  const auto unpromoted = run_and_count_insts(reduction, without);
  // Promotion removes ~2 memory instructions per inner iteration.
  EXPECT_LT(promoted + 64 * 64, unpromoted);
}

TEST(CostModelTest, PromotionDoesNotApplyWhenLhsVariesInnermost) {
  const std::string elementwise = R"(
kernel k(N = 64) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] += 1.0;
}
)";
  CostModelParams with;
  CostModelParams without;
  without.promote_accumulators = false;
  EXPECT_EQ(run_and_count_insts(elementwise, with),
            run_and_count_insts(elementwise, without));
}

TEST(CostModelTest, UnrollFactorAmortizesLoopOverhead) {
  const std::string loop = R"(
kernel k(N = 256) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = 1.0;
}
)";
  CostModelParams u1;
  u1.unroll_factor = 1;
  CostModelParams u4;
  u4.unroll_factor = 4;
  const auto unrolled = run_and_count_insts(loop, u4);
  const auto rolled = run_and_count_insts(loop, u1);
  // 256 iterations x 2 bookkeeping insts x 3/4 saved = 384.
  EXPECT_EQ(rolled - unrolled, 384u);
}

TEST(CostModelTest, CacheStallsDependOnLocality) {
  // Column-major walk over a large array stalls more than row-major.
  const std::string row_major = R"(
kernel k(N = 512) {
  array float A[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      A[i][j] = 1.0;
}
)";
  const std::string col_major = R"(
kernel k(N = 512) {
  array float A[N][N];
  for (j = 0; j < N; j++)
    for (i = 0; i < N; i++)
      A[i][j] = 1.0;
}
)";
  auto cycles = [](const std::string& source) {
    sim::System system;
    Interpreter interp{system, nullptr};
    EXPECT_TRUE(interp.run(program_from(source)).is_ok());
    return system.cpu().cycles();
  };
  EXPECT_GT(cycles(col_major), cycles(row_major) * 2);
}

TEST(ProgramTest, HostOnlyProgramCarriesDeclarations) {
  auto fn = frontend::parse_kernel(R"(
kernel k(N = 4, alpha = 1.0) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = alpha;
}
)");
  ASSERT_TRUE(fn.is_ok());
  const Program program = host_only_program(*fn);
  EXPECT_EQ(program.arrays.size(), 1u);
  EXPECT_EQ(program.scalars.size(), 1u);
  ASSERT_EQ(program.items.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<HostNest>(program.items[0]));
}

}  // namespace
}  // namespace tdo::exec
