// Unit tests for the PCM crossbar: programming, signed fixed-point GEMV
// exactness, wear accounting, and noise behaviour.
#include "pcm/crossbar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <vector>

#include "support/rng.hpp"

namespace tdo::pcm {
namespace {

[[nodiscard]] Crossbar small_crossbar(std::uint32_t rows = 8,
                                      std::uint32_t cols = 8) {
  CrossbarParams params;
  params.rows = rows;
  params.cols = cols;
  return Crossbar{params};
}

TEST(CrossbarTest, StoresAndReadsBackSigned8BitWeights) {
  Crossbar xbar = small_crossbar();
  const std::vector<std::int8_t> row = {-128, -127, -1, 0, 1, 63, 64, 127};
  xbar.write_row(0, row);
  for (std::size_t c = 0; c < row.size(); ++c) {
    EXPECT_EQ(xbar.weight_at(0, static_cast<std::uint32_t>(c)), row[c])
        << "column " << c;
  }
}

TEST(CrossbarTest, GemvMatchesExactIntegerDotProduct) {
  Crossbar xbar = small_crossbar();
  const std::vector<std::int8_t> w0 = {1, -2, 3, -4, 5, -6, 7, -8};
  const std::vector<std::int8_t> w1 = {127, -127, 64, -64, 32, -32, 0, 1};
  xbar.write_row(0, w0);
  xbar.write_row(1, w1);

  const std::vector<std::int8_t> in = {3, -5};
  const GemvResult result = xbar.gemv(in, /*active_rows=*/2, /*active_cols=*/8);
  ASSERT_EQ(result.acc.size(), 8u);
  for (std::uint32_t c = 0; c < 8; ++c) {
    const std::int32_t expected = 3 * w0[c] + (-5) * w1[c];
    EXPECT_EQ(result.acc[c], expected) << "column " << c;
  }
}

TEST(CrossbarTest, GemvHandlesExtremeValuesWithoutOverflow) {
  Crossbar xbar = small_crossbar(4, 4);
  const std::vector<std::int8_t> row(4, 127);
  for (std::uint32_t r = 0; r < 4; ++r) xbar.write_row(r, row);
  const std::vector<std::int8_t> in(4, 127);
  const GemvResult result = xbar.gemv(in, 4, 4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(result.acc[c], 4 * 127 * 127);
  }
}

TEST(CrossbarTest, UnprogrammedColumnsContributeZero) {
  Crossbar xbar = small_crossbar();
  // Never programmed: the offset-corrected result of any input must be the
  // dot product with the stored weights, which are all "-128 offset" zeros
  // only after programming; fresh cells hold level 0 == offset-encoded -128.
  const std::vector<std::int8_t> in = {1, 2, 3};
  const GemvResult result = xbar.gemv(in, 3, 4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(result.acc[c], (1 + 2 + 3) * -128);
  }
}

TEST(CrossbarTest, WearAccountingCountsEveryProgrammingPulse) {
  Crossbar xbar = small_crossbar(4, 4);
  const std::vector<std::int8_t> row = {1, 2, 3, 4};
  EXPECT_EQ(xbar.write_row(0, row), 8u);  // 4 weights x 2 nibble cells
  EXPECT_EQ(xbar.total_cell_writes(), 8u);
  // Rewriting the same values still wears the cells (RESET+SET sequence).
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.total_cell_writes(), 16u);
  EXPECT_EQ(xbar.max_cell_writes(), 2u);
}

TEST(CrossbarTest, PartialRowWriteOnlyTouchesPrefix) {
  Crossbar xbar = small_crossbar(4, 8);
  const std::vector<std::int8_t> row = {9, 9};
  EXPECT_EQ(xbar.write_row(1, row), 4u);  // 2 weights x 2 cells
  EXPECT_EQ(xbar.weight_at(1, 0), 9);
  EXPECT_EQ(xbar.weight_at(1, 1), 9);
  EXPECT_EQ(xbar.total_cell_writes(), 4u);
  EXPECT_EQ(xbar.weight_at(1, 2), -128);  // never programmed
}

TEST(CrossbarTest, ClearTailProgramsWholeRow) {
  Crossbar xbar = small_crossbar(2, 4);
  const std::vector<std::int8_t> row = {5};
  EXPECT_EQ(xbar.write_row(0, row, /*clear_tail=*/true), 8u);
  EXPECT_EQ(xbar.weight_at(0, 0), 5);
  for (std::uint32_t c = 1; c < 4; ++c) EXPECT_EQ(xbar.weight_at(0, c), 0);
}

TEST(CrossbarTest, ReadNoisePerturbsButTracksIdealResult) {
  CrossbarParams params;
  params.rows = 16;
  params.cols = 4;
  params.cell.read_noise_sigma = 0.01;
  Crossbar xbar{params};
  const std::vector<std::int8_t> row(4, 100);
  for (std::uint32_t r = 0; r < 16; ++r) xbar.write_row(r, row);
  const std::vector<std::int8_t> in(16, 50);
  support::Rng rng{42};
  const GemvResult noisy = xbar.gemv(in, 16, 4, &rng);
  const std::int32_t ideal = 16 * 50 * 100;
  // Exact values for this seed pin the draw order: columns outer, rows
  // inner, the MSB cell's draw before the LSB cell's.
  EXPECT_EQ(noisy.acc, (std::vector<std::int32_t>{78282, 79603, 75277, 79007}));
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_NE(noisy.acc[c], 0);
    // 1% device noise must stay well within 10% of the ideal accumulation.
    EXPECT_NEAR(static_cast<double>(noisy.acc[c]), static_cast<double>(ideal),
                0.1 * ideal);
  }
}

TEST(CrossbarTest, WornOutDetectionAfterEnduranceLimit) {
  CrossbarParams params;
  params.rows = 1;
  params.cols = 1;
  params.cell.endurance_writes = 3;
  Crossbar xbar{params};
  const std::vector<std::int8_t> row = {1};
  EXPECT_EQ(xbar.worn_cells(), 0u);
  xbar.write_row(0, row);
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.worn_cells(), 0u);
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.worn_cells(), 2u);  // both nibble cells hit the limit
}

/// One property case: a `rows x cols` crossbar, a GEMV over the row window
/// [row0, row0 + active_rows) and the first `active_cols` columns, and a
/// programming layout. `partial` leaves some rows unprogrammed (they read
/// -128) and writes others with short rows, with and without `clear_tail`,
/// over earlier writes of the same row.
struct GemvCase {
  int rows;
  int cols;
  int seed;
  int row0;
  int active_rows;  // -1: every row from row0 on
  int active_cols;  // -1: every column
  bool partial;
};

/// The whole array, fully programmed.
[[nodiscard]] GemvCase full_array(int rows, int cols, int seed) {
  return GemvCase{rows, cols, seed, 0, -1, -1, false};
}

/// `full_array` cases print as "(rows, cols, seed)"; window and layout
/// fields are appended only when they differ from `full_array`'s.
void PrintTo(const GemvCase& c, std::ostream* os) {
  *os << "(" << c.rows << ", " << c.cols << ", " << c.seed;
  if (c.row0 != 0 || c.active_rows >= 0 || c.active_cols >= 0) {
    *os << ", row0=" << c.row0 << ", " << c.active_rows << "x" << c.active_cols;
  }
  if (c.partial) *os << ", partial";
  *os << ")";
}

class CrossbarGemvPropertyTest : public ::testing::TestWithParam<GemvCase> {};

TEST_P(CrossbarGemvPropertyTest, MatchesIntegerReferenceOnRandomData) {
  const GemvCase& tc = GetParam();
  const int rows = tc.rows;
  const int cols = tc.cols;
  const int active_rows = tc.active_rows >= 0 ? tc.active_rows : rows - tc.row0;
  const int active_cols = tc.active_cols >= 0 ? tc.active_cols : cols;
  CrossbarParams params;
  params.rows = static_cast<std::uint32_t>(rows);
  params.cols = static_cast<std::uint32_t>(cols);
  params.cell.endurance_writes = 2;
  Crossbar xbar{params};
  support::Rng rng{static_cast<std::uint64_t>(tc.seed)};

  // Reference model: weights (fresh cells read -128) and per-weight write
  // counts (both nibble cells of a weight are always written together).
  std::vector<std::vector<std::int8_t>> w(rows, std::vector<std::int8_t>(cols, -128));
  std::vector<std::vector<std::uint64_t>> writes(rows,
                                                 std::vector<std::uint64_t>(cols, 0));
  auto program = [&](int r, int len, bool clear_tail) {
    std::vector<std::int8_t> row(static_cast<std::size_t>(len));
    for (auto& v : row) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    const int end = clear_tail ? cols : len;
    for (int c = 0; c < end; ++c) {
      w[r][c] = c < len ? row[c] : std::int8_t{0};
      ++writes[r][c];
    }
    EXPECT_EQ(xbar.write_row(static_cast<std::uint32_t>(r), row, clear_tail),
              2u * static_cast<std::uint64_t>(end));
  };
  for (int r = 0; r < rows; ++r) {
    if (!tc.partial) {
      program(r, cols, false);
      continue;
    }
    const auto short_len = [&] { return static_cast<int>(rng.uniform_int(0, cols - 1)); };
    switch (r % 4) {
      case 0:  // never programmed
        break;
      case 1:  // short row, tail keeps its fresh -128 cells
        program(r, short_len(), false);
        break;
      case 2:  // full row, then an overlapping short rewrite
        program(r, cols, false);
        program(r, short_len(), false);
        break;
      default:  // full row, then a short rewrite that clears the tail
        program(r, cols, false);
        program(r, short_len(), true);
        break;
    }
  }
  std::vector<std::int8_t> in(static_cast<std::size_t>(active_rows));
  for (auto& v : in) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));

  const GemvResult result =
      xbar.gemv(in, static_cast<std::uint32_t>(active_rows),
                static_cast<std::uint32_t>(active_cols), nullptr,
                static_cast<std::uint32_t>(tc.row0));
  ASSERT_EQ(result.acc.size(), static_cast<std::size_t>(active_cols));
  for (int c = 0; c < active_cols; ++c) {
    std::int64_t expected = 0;
    for (int r = 0; r < active_rows; ++r) {
      expected += static_cast<std::int64_t>(in[r]) * w[tc.row0 + r][c];
    }
    EXPECT_EQ(result.acc[c], expected) << "col " << c;
  }

  std::uint64_t total = 0;
  std::uint64_t max_writes = 0;
  std::uint64_t worn = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      EXPECT_EQ(xbar.weight_at(static_cast<std::uint32_t>(r),
                               static_cast<std::uint32_t>(c)),
                w[r][c])
          << "row " << r << " col " << c;
      total += 2 * writes[r][c];
      max_writes = std::max(max_writes, writes[r][c]);
      if (writes[r][c] >= params.cell.endurance_writes) worn += 2;
    }
  }
  EXPECT_EQ(xbar.total_cell_writes(), total);
  EXPECT_EQ(xbar.max_cell_writes(), max_writes);
  EXPECT_EQ(xbar.worn_cells(), worn);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossbarGemvPropertyTest,
    ::testing::Values(full_array(1, 1, 1), full_array(7, 3, 2),
                      full_array(16, 16, 3), full_array(64, 32, 4),
                      full_array(256, 256, 5), full_array(33, 257 - 1, 6),
                      // Row windows and partly programmed layouts.
                      GemvCase{64, 32, 7, 16, 24, 20, true},
                      GemvCase{256, 256, 8, 100, 156, 256, true},
                      GemvCase{256, 256, 9, 0, 256, 256, true},
                      GemvCase{33, 17, 10, 32, 1, 1, true},
                      GemvCase{16, 16, 11, 5, 0, 16, true},
                      GemvCase{16, 16, 12, 3, 7, 0, false},
                      GemvCase{40, 9, 13, 13, 20, 5, false}));

}  // namespace
}  // namespace tdo::pcm
