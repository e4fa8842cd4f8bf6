// Multi-level phase-change memory cell (paper Section II-A, Figure 1).
//
// A cell stores a 4-bit level in its conductance state (IBM 4-bit PCM, Table
// I). Programming applies RESET (amorphize) then iterative SET pulses;
// every programming operation wears the cell, which is the quantity the
// paper's endurance-aware compiler transformations minimize. The crossbar
// (crossbar.hpp) packs the two levels of each 8-bit weight into one int8
// and counts writes per cell; this header holds the device parameters.
#pragma once

#include <cstdint>

namespace tdo::pcm {

/// Device-physics parameters for one PCM cell.
struct CellParams {
  std::uint8_t bits = 4;                 // levels = 2^bits
  double g_min_siemens = 0.1e-6;         // fully amorphous conductance
  double g_max_siemens = 20e-6;          // fully crystalline conductance
  double read_noise_sigma = 0.0;         // relative sigma on conductance reads
  std::uint64_t endurance_writes = 10'000'000;  // cell wears out after this
};

}  // namespace tdo::pcm
