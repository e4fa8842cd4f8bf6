// Micro-engine of the CIM accelerator (paper Section II-C).
//
// "The micro-engine translates the high level-parameters stored in the
// context registers into a series of circuit-level operations such as loading
// the data from shared memory to row/column buffers, configuring the mask
// values, triggering the computation on CIM tile, and writing back the
// results from the output buffers to the shared memory. Additionally, it
// manages the control flow involved in decomposing GEMM to a series of GEMVs
// and supports double buffering for all the registers in the accelerator to
// hide the data latency of the memory accesses."
//
// Timing is computed with an explicit pipeline schedule (fill / compute /
// store per GEMV, fill / program per crossbar row) and materialized on the
// system event queue as phase-completion events; the functional work happens
// eagerly so results are in shared memory when the completion event fires.
#pragma once

#include <cstdint>
#include <map>

#include "cim/cim_tile.hpp"
#include "cim/context_regs.hpp"
#include "cim/dma.hpp"
#include "pcm/energy_model.hpp"
#include "sim/event_queue.hpp"
#include "support/stats.hpp"
#include "support/status.hpp"
#include "support/units.hpp"

namespace tdo::cim {

/// Per-category energy sinks owned by the accelerator.
struct EnergySinks {
  support::EnergyAccumulator* write = nullptr;
  support::EnergyAccumulator* compute = nullptr;
  support::EnergyAccumulator* mixed_signal = nullptr;
  support::EnergyAccumulator* digital = nullptr;
  support::EnergyAccumulator* buffers = nullptr;
  support::EnergyAccumulator* dma = nullptr;
};

/// Timeline of one executed job (for traces, tests and the Fig-2d diagram).
struct JobTimeline {
  sim::Tick trigger = 0;
  sim::Tick weights_programmed = 0;
  sim::Tick done = 0;
  /// Ticks of weight-load DMA hidden under the previous job's stream phase
  /// (non-zero only for jobs chained from the accelerator work queue).
  sim::Tick overlap = 0;
  /// Activity counts of this job (tile/DMA stat deltas) — exactly what the
  /// launch charged the energy sinks with, carried so the engine's trace
  /// span can expose them for trace-driven energy attribution.
  std::uint64_t weight_writes8 = 0;
  std::uint64_t mac8_ops = 0;
  std::uint64_t gemv_ops = 0;
  std::uint64_t extra_alu_ops = 0;
  std::uint64_t buffer_byte_accesses = 0;
  std::uint64_t dma_bursts = 0;

  [[nodiscard]] support::Duration weight_phase() const {
    return sim::from_ticks(weights_programmed - trigger);
  }
  [[nodiscard]] support::Duration stream_phase() const {
    return sim::from_ticks(done - weights_programmed);
  }
  [[nodiscard]] support::Duration total() const {
    return sim::from_ticks(done - trigger);
  }
};

/// The stationary tile a job programs into (or expects resident in) its
/// crossbar row window: where the operand lives, its quantization scale and
/// its crossbar geometry (rows = the reduction length k; cols = n under
/// stationary B, m under stationary A).
struct StationaryTile {
  std::uint64_t pa = 0;
  std::uint64_t ld = 0;
  double scale = 1.0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  StationaryOperand layout = StationaryOperand::kB;

  bool operator==(const StationaryTile&) const = default;
};

/// Fields of a compute job's register image (kGemm, kGemv, kGemmBatched,
/// kProgram).
struct GemmJob {
  std::uint64_t m = 0, n = 0, k = 0;
  std::uint64_t pa_a = 0, pa_b = 0, pa_c = 0;
  std::uint64_t lda = 0, ldb = 0, ldc = 0;
  float alpha = 1.0f, beta = 0.0f;
  double scale_a = 1.0, scale_b = 1.0;
  StationaryOperand stationary = StationaryOperand::kB;
  bool double_buffering = true;
  bool skip_weight_load = false;
  std::uint32_t tile_row0 = 0;  ///< crossbar row window of the stationary tile

  /// Reads the fields without validating them (MicroEngine::decode does).
  [[nodiscard]] static GemmJob read(const ContextRegs& regs);
  [[nodiscard]] StationaryTile stationary_tile() const {
    return stationary == StationaryOperand::kB
               ? StationaryTile{pa_b, ldb, scale_b, k, n, stationary}
               : StationaryTile{pa_a, lda, scale_a, k, m, stationary};
  }
};

struct MicroEngineParams {
  /// Context-register decode + control setup before the first DMA.
  support::Duration job_setup = support::Duration::from_ns(100);
};

class MicroEngine {
 public:
  MicroEngine(MicroEngineParams params, CimTile& tile, Dma& dma,
              const pcm::CimEnergyModel& model, sim::EventQueue& events,
              EnergySinks sinks)
      : params_{params}, tile_{tile}, dma_{dma}, model_{model}, events_{events},
        sinks_{sinks} {}

  /// Executes the job in `regs`. Performs all functional memory traffic
  /// immediately, charges energy, computes the pipeline schedule, and
  /// schedules a completion event that flips kStatus to kDone (or kError).
  /// Returns the computed timeline.
  ///
  /// `prefetch_credit` is time during which the job's weight-load DMA could
  /// already run (the previous job's stream phase, when the job was sitting
  /// in the accelerator work queue with double-buffered context registers):
  /// up to min(credit, weight-DMA time) is subtracted from the weight phase.
  JobTimeline launch(ContextRegs& regs,
                     support::Duration prefetch_credit = support::Duration::zero());

  /// Advisory estimate of the weight-load DMA a queued `image` would prefetch
  /// while the current job streams (stream-level double buffering): the DMA
  /// share of its first weight phase, zero when the image disables double
  /// buffering or carries a reuse request the engine expects to validate.
  /// Side-effect free — used to reserve the prefetch's channel window on the
  /// Dma timeline at enqueue time, so stream copies cannot double-book the
  /// slot the prefetch will occupy. A wrong estimate only costs accounting
  /// precision (the launch-time credit stays authoritative).
  [[nodiscard]] support::Duration estimate_prefetch_dma(
      const ContextRegs& image) const;

  /// Advisory estimate of the stream-body DMA (vector fills, old-C reads
  /// when beta != 0, result stores; batched jobs scale by their entry count)
  /// a queued `image` will occupy on the engine channel *after* it launches.
  /// Side-effect free — used to reserve an advisory busy window at enqueue
  /// time so stream copies submitted while the job waits cannot first-fit
  /// into channel time its body traffic will claim. A wrong estimate only
  /// shifts copy placement; the launch-time reservation stays authoritative.
  [[nodiscard]] support::Duration estimate_stream_dma(
      const ContextRegs& image) const;

  /// Tile programmed at crossbar row window starting at `row0`, if any (for
  /// reuse detection within batched jobs, across jobs for the runtime's
  /// weight-residency cache, and for tests). Several tiles stay resident
  /// simultaneously in disjoint row windows.
  [[nodiscard]] const StationaryTile* programmed_tile(std::uint32_t row0 = 0) const {
    const auto it = programmed_.find(row0);
    return it == programmed_.end() ? nullptr : &it->second;
  }
  /// Invalidate reuse tracking for tiles overlapping rows [row0, row0+rows)
  /// (a job is about to reprogram that window).
  void invalidate_rows(std::uint32_t row0, std::uint64_t rows);

  /// 8-bit weight programs skipped thanks to stationary-tile reuse (batched
  /// shared inputs and the runtime's weight-residency cache).
  [[nodiscard]] const support::Counter& weight_writes_saved_counter() const {
    return weight_writes_saved8_;
  }
  [[nodiscard]] std::uint64_t weight_writes_saved8() const {
    return weight_writes_saved8_.value();
  }

 private:
  [[nodiscard]] support::StatusOr<GemmJob> decode(const ContextRegs& regs) const;

  /// Whether the job's stationary tile is the one resident at its row window.
  [[nodiscard]] bool holds(const GemmJob& job) const;
  /// Rejects a stationary tile that overruns the crossbar.
  [[nodiscard]] support::Status check_fits(const GemmJob& job) const;

  /// Runs one GEMM; returns (weight_phase, stream_phase) durations plus the
  /// pure-DMA shares of each phase (what occupies the engine's DMA channel).
  struct PhaseTimes {
    support::Duration weights;
    support::Duration weight_dma;
    support::Duration stream;
    support::Duration stream_dma;
    std::uint64_t weight_dma_bytes = 0;
  };
  [[nodiscard]] support::StatusOr<PhaseTimes> run_gemm(const GemmJob& job);

  /// Loads the stationary operand into the crossbar.
  struct WeightPhase {
    support::Duration total;
    support::Duration dma;  // DMA share; prefetchable while the engine streams
    std::uint64_t dma_bytes = 0;
  };
  [[nodiscard]] WeightPhase load_weights(const GemmJob& job);

  /// Streams the moving operand; returns the phase duration plus its DMA
  /// share (vector fills + result stores — the channel-occupancy part).
  struct StreamPhase {
    support::Duration total;
    support::Duration dma;
  };
  [[nodiscard]] StreamPhase stream_vectors(const GemmJob& job);

  MicroEngineParams params_;
  CimTile& tile_;
  Dma& dma_;
  const pcm::CimEnergyModel& model_;
  sim::EventQueue& events_;
  EnergySinks sinks_;
  /// Resident stationary tiles, keyed by crossbar row-window start.
  std::map<std::uint32_t, StationaryTile> programmed_;
  support::Counter weight_writes_saved8_;
};

}  // namespace tdo::cim
