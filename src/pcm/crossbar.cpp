#include "pcm/crossbar.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tdo::pcm {

namespace {
/// Unsigned offset-binary image of a signed 8-bit value.
[[nodiscard]] constexpr std::uint8_t to_offset(std::int8_t v) {
  return static_cast<std::uint8_t>(static_cast<int>(v) + 128);
}

/// Analog conductance of a cell at `level` (0 = high-resistance amorphous),
/// linearly interpolated across the 2^bits levels, with one relative read
/// noise draw from `rng`.
[[nodiscard]] double noisy_conductance(const CellParams& p, std::uint8_t level,
                                       support::Rng& rng) {
  const double span = p.g_max_siemens - p.g_min_siemens;
  const double ideal = p.g_min_siemens +
                       span * static_cast<double>(level) /
                           static_cast<double>((1u << p.bits) - 1);
  return ideal * (1.0 + rng.normal(0.0, p.read_noise_sigma));
}
}  // namespace

Crossbar::Crossbar(CrossbarParams params)
    : params_{params},
      // A fresh cell holds level 0 on both nibbles: offset 0, weight -128.
      weights_(capacity_weights(), std::int8_t{-128}),
      cell_writes_(2 * capacity_weights(), 0) {}

std::uint64_t Crossbar::write_row(std::uint32_t row,
                                  std::span<const std::int8_t> weights,
                                  bool clear_tail) {
  assert(row < params_.rows);
  assert(weights.size() <= params_.cols);
  const std::uint32_t end =
      clear_tail ? params_.cols : static_cast<std::uint32_t>(weights.size());
  const std::size_t base = index(row, 0);
  for (std::uint32_t c = 0; c < end; ++c) {
    weights_[base + c] = c < weights.size() ? weights[c] : std::int8_t{0};
    ++cell_writes_[2 * (base + c)];
    ++cell_writes_[2 * (base + c) + 1];
  }
  const std::uint64_t writes = 2ull * end;
  total_cell_writes_ += writes;
  return writes;
}

GemvResult Crossbar::gemv(std::span<const std::int8_t> inputs,
                          std::uint32_t active_rows, std::uint32_t active_cols,
                          support::Rng* rng, std::uint32_t row0) const {
  assert(row0 + active_rows <= params_.rows);
  assert(active_cols <= params_.cols);
  assert(inputs.size() >= active_rows);

  GemvResult result;
  result.acc.assign(active_cols, 0);

  const bool noisy = rng != nullptr && params_.cell.read_noise_sigma > 0.0;
  if (!noisy) {
    // Noise-free: the offset-corrected nibble sum equals the signed dot
    // product (header comment), so accumulate it directly, row by row over
    // contiguous weights. |sum| <= 256 * 128 * 128 < 2^31.
    std::int32_t* acc = result.acc.data();
    for (std::uint32_t r = 0; r < active_rows; ++r) {
      const std::int32_t in = inputs[r];
      const std::int8_t* w = &weights_[index(row0 + r, 0)];
      for (std::uint32_t c = 0; c < active_cols; ++c) acc[c] += in * w[c];
    }
    return result;
  }

  // Analog path: currents through noisy conductances, converted back to
  // level units before the weighted sum, mimicking per-column ADCs. Draws
  // run column by column, MSB cell before LSB cell of each row.
  std::int64_t input_sum_u = 0;
  for (std::uint32_t r = 0; r < active_rows; ++r) {
    input_sum_u += to_offset(inputs[r]);
  }
  const double g_min = params_.cell.g_min_siemens;
  const double to_levels = 15.0 / (params_.cell.g_max_siemens - g_min);
  for (std::uint32_t c = 0; c < active_cols; ++c) {
    double msb_current = 0.0;
    double lsb_current = 0.0;
    std::int64_t weight_sum_u = 0;
    for (std::uint32_t r = 0; r < active_rows; ++r) {
      const auto in_u = static_cast<double>(to_offset(inputs[r]));
      const std::uint8_t w_u = to_offset(weights_[index(row0 + r, c)]);
      msb_current +=
          in_u * (noisy_conductance(params_.cell, w_u >> 4, *rng) - g_min);
      lsb_current +=
          in_u * (noisy_conductance(params_.cell, w_u & 0xF, *rng) - g_min);
      weight_sum_u += w_u;
    }
    const std::int64_t acc_u =
        16 * static_cast<std::int64_t>(std::llround(msb_current * to_levels)) +
        static_cast<std::int64_t>(std::llround(lsb_current * to_levels));
    // Offset correction by the digital logic block: the row buffers supply
    // sum(in_u) and the active-row weight sum (the "mask register" role of
    // Section II-B), leaving sum (in_u - 128)(w_u - 128).
    const std::int64_t n = active_rows;
    result.acc[c] = static_cast<std::int32_t>(
        acc_u - 128 * input_sum_u - 128 * weight_sum_u + 128LL * 128LL * n);
  }
  return result;
}

std::uint64_t Crossbar::max_cell_writes() const {
  return cell_writes_.empty()
             ? 0
             : *std::max_element(cell_writes_.begin(), cell_writes_.end());
}

std::uint64_t Crossbar::worn_cells() const {
  const std::uint64_t limit = params_.cell.endurance_writes;
  return static_cast<std::uint64_t>(
      std::count_if(cell_writes_.begin(), cell_writes_.end(),
                    [limit](std::uint64_t w) { return w >= limit; }));
}

}  // namespace tdo::pcm
