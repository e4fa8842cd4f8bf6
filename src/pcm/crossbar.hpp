// PCM crossbar array (paper Section II-B, Figure 2c).
//
// Logical geometry: `rows x cols` 8-bit weights. Each 8-bit weight occupies
// two adjacent 4-bit physical columns (MSB nibble, LSB nibble), matching the
// "IBM PCM 2x(256x256 @4-bit)" configuration in Table I.
//
// Signed arithmetic uses offset-binary encoding with digital correction:
// weights and inputs are applied as unsigned (value + 128), which keeps
// conductances non-negative, and the digital logic block removes the offset
// terms with the per-GEMV input and weight sums. Because
//   sum (in+128)(w+128) - 128 sum(in+128) - 128 sum(w+128) + 128^2 n
//     = sum in*w,
// the corrected hardware result is exactly the signed dot product. The
// noise-free path therefore computes that dot product directly from the
// stored signed weights; only the noisy path models the nibble currents.
//
// Storage: one row-major int8 weight per logical cell pair (the nibble
// levels are (w+128)>>4 and (w+128)&15) plus one write counter per physical
// cell for wear accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcm/cell.hpp"
#include "support/rng.hpp"

namespace tdo::pcm {

struct CrossbarParams {
  std::uint32_t rows = 256;
  std::uint32_t cols = 256;  // logical 8-bit columns
  CellParams cell;
};

/// Result of one analog matrix-vector evaluation: raw signed 32-bit dot
/// products per logical column (already offset-corrected and nibble-combined).
struct GemvResult {
  std::vector<std::int32_t> acc;
};

class Crossbar {
 public:
  explicit Crossbar(CrossbarParams params);

  [[nodiscard]] std::uint32_t rows() const { return params_.rows; }
  [[nodiscard]] std::uint32_t cols() const { return params_.cols; }
  /// Crossbar capacity in 8-bit weights (the "S" of the paper's Eq. 1 when
  /// multiplied by 2 physical 4-bit devices... S is counted in bytes here).
  [[nodiscard]] std::uint64_t capacity_weights() const {
    return static_cast<std::uint64_t>(params_.rows) * params_.cols;
  }

  /// Programs one row of signed 8-bit weights. `weights.size()` must be
  /// <= cols(); remaining columns are programmed to zero only when
  /// `clear_tail` is set. Every programmed weight counts one write on each of
  /// its two cells, even when the level is unchanged (the program-and-verify
  /// sequence always applies a RESET pulse first). Returns the number of
  /// cell writes performed.
  std::uint64_t write_row(std::uint32_t row, std::span<const std::int8_t> weights,
                          bool clear_tail = false);

  /// Evaluates I = v . G over `active_rows` rows starting at physical row
  /// `row0` with signed 8-bit inputs (the row decoder activates an arbitrary
  /// contiguous row window, so several stationary tiles can coexist in
  /// disjoint row ranges). The computation is exact in fixed point (see
  /// header comment); read noise, if enabled in CellParams, perturbs the
  /// analog accumulation. Unprogrammed cells hold level 0, i.e. weight -128.
  [[nodiscard]] GemvResult gemv(std::span<const std::int8_t> inputs,
                                std::uint32_t active_rows,
                                std::uint32_t active_cols,
                                support::Rng* rng = nullptr,
                                std::uint32_t row0 = 0) const;

  /// Digital view of a stored weight (for tests and for result verification).
  [[nodiscard]] std::int8_t weight_at(std::uint32_t row, std::uint32_t col) const {
    return weights_[index(row, col)];
  }

  // --- wear accounting (drives Figure 5) ---
  [[nodiscard]] std::uint64_t total_cell_writes() const { return total_cell_writes_; }
  [[nodiscard]] std::uint64_t max_cell_writes() const;
  [[nodiscard]] std::uint64_t worn_cells() const;
  [[nodiscard]] const CrossbarParams& params() const { return params_; }

 private:
  // Physical layout: logical weight i = row * cols + c owns the MSB cell
  // 2i and the LSB cell 2i + 1 of `cell_writes_`.
  [[nodiscard]] std::size_t index(std::uint32_t row, std::uint32_t col) const {
    return static_cast<std::size_t>(row) * params_.cols + col;
  }

  CrossbarParams params_;
  std::vector<std::int8_t> weights_;
  std::vector<std::uint64_t> cell_writes_;
  std::uint64_t total_cell_writes_ = 0;
};

}  // namespace tdo::pcm
