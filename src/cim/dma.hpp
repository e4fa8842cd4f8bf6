// Accelerator-side DMA unit (paper Section II-C/II-D).
//
// "The accelerator, on his part, uses only un-cachable requests for memory
// access which automatically enforces memory coherence": DMA bypasses the
// host cache hierarchy and reads/writes SimMemory directly, charging
// bandwidth-model latency and the Table I DMA energy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcm/energy_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_memory.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

namespace tdo::cim {

struct DmaParams {
  /// Effective uncacheable bandwidth to LPDDR3-933 shared memory.
  double bandwidth_bytes_per_sec = 6.4e9;
  /// Fixed per-burst setup (command + address phase).
  support::Duration burst_setup = support::Duration::from_ns(40);
  /// Strided (gather) transfers move element-by-element bursts; this factor
  /// derates bandwidth for non-unit-stride access.
  double strided_derate = 4.0;
  /// Independent DMA channels. Channel 0 carries the micro-engine's own
  /// weight-load/vector traffic; stream copies prefer the highest channel and
  /// migrate toward channel 0 only when it is the earliest one free. With a
  /// single channel every transfer — engine traffic and stream copies alike —
  /// serializes on one timeline.
  std::uint32_t channels = 2;
};

class Dma {
 public:
  Dma(DmaParams params, sim::SimMemory& memory)
      : params_{params}, memory_{memory} {
    if (params_.channels == 0) params_.channels = 1;
    channels_.resize(params_.channels);
  }

  /// Contiguous copy device<-memory. Returns transfer duration.
  support::Duration read_block(sim::PhysAddr src, std::span<std::uint8_t> out);

  /// Contiguous copy memory<-device.
  support::Duration write_block(sim::PhysAddr dst, std::span<const std::uint8_t> in);

  /// Gather `count` elements of `elem_bytes` starting at `src` with byte
  /// stride `stride` (used to stream matrix columns).
  support::Duration read_strided(sim::PhysAddr src, std::uint64_t stride,
                                 std::uint32_t elem_bytes, std::uint32_t count,
                                 std::span<std::uint8_t> out);

  /// Scatter (column write-back).
  support::Duration write_strided(sim::PhysAddr dst, std::uint64_t stride,
                                  std::uint32_t elem_bytes, std::uint32_t count,
                                  std::span<const std::uint8_t> in);

  /// Pure timing estimates (no transfer, no counters): what a contiguous /
  /// strided burst of `bytes` would cost. Used to pre-reserve the channel
  /// window of a queued job's weight-load prefetch before the job launches.
  [[nodiscard]] support::Duration estimate_block(std::uint64_t bytes) const {
    return block_time(bytes);
  }
  [[nodiscard]] support::Duration estimate_strided(std::uint64_t bytes) const {
    return strided_time(bytes);
  }

  /// Memory-to-memory rectangle copy (`rows` rows of `width` bytes, row
  /// starts `src_pitch`/`dst_pitch` bytes apart): the stream's kCopy
  /// commands. Both directions of the traffic ride this channel, so the
  /// returned duration covers read + write bandwidth. Contiguous rectangles
  /// (pitch == width, or a single row) move as two bursts; pitched ones pay
  /// a burst pair per row.
  support::Duration copy_rect(sim::PhysAddr src, std::uint64_t src_pitch,
                              sim::PhysAddr dst, std::uint64_t dst_pitch,
                              std::uint64_t width, std::uint64_t rows);

  // --- per-channel busy-window timeline (contention model) ---
  //
  // Every transfer occupies a [start, end) window on one channel. The
  // micro-engine reserves windows for its own weight-load and vector traffic
  // on channel 0 as each job launches; stream copies are placed first-fit
  // into the idle gaps, so a copy overlapping the engine's own DMA
  // serializes behind it (or migrates to an idle channel) instead of being
  // modeled as free overlap. Windows are granted in arrival order: a copy
  // that reserved a slot before a chained job launched keeps it.

  /// Reserves [begin, end) on channel 0 for engine traffic. Engine windows
  /// are inserted unconditionally (the job's schedule is already fixed).
  void reserve_engine(sim::Tick begin, sim::Tick end);

  /// Advisory reservation on channel 0: the *estimated* body DMA of a job
  /// still sitting in the accelerator work queue. Copies first-fit around it
  /// exactly like a real engine window — a copy submitted while jobs are
  /// queued must not book channel time their fills/stores will occupy after
  /// launch — but the window is an estimate: drop_advisory() clears every
  /// advisory window at the next job launch, when the authoritative
  /// launch-time reservations replace it.
  void reserve_engine_advisory(sim::Tick begin, sim::Tick end);

  /// Drops every advisory window (call at job launch, where the engine's
  /// own reservations supersede the enqueue-time estimates; without this
  /// the same body traffic would be double-booked — advisory windows end in
  /// the future, so retire_before never reaches them).
  void drop_advisory();

  /// Where a copy chain of `duration` ticks was placed: the first-fit start
  /// (>= earliest) on the channel that finishes it soonest, preferring the
  /// dedicated copy channel (highest index) on ties.
  struct CopySlot {
    std::uint32_t channel = 0;
    sim::Tick start = 0;
  };
  [[nodiscard]] CopySlot reserve_copy(sim::Tick earliest, sim::Tick duration);

  /// Ticks of [lo, hi) covered by *engine* windows on `channel` (the share
  /// of a copy's window that cannot count as compute overlap: the channel
  /// was busy with the engine's own traffic, not idle under compute).
  [[nodiscard]] sim::Tick engine_busy_overlap(std::uint32_t channel,
                                              sim::Tick lo, sim::Tick hi) const;

  /// Drops windows that ended at or before `horizon` (no future reservation
  /// or overlap query reaches them: queries always start at or after the
  /// current event time). Called with the current tick at job launch and at
  /// copy submission, bounding the timeline's memory.
  void retire_before(sim::Tick horizon) { retire_windows_before(horizon); }

  /// Records `bytes` of traffic that ran on the otherwise-idle channel while
  /// the engine streamed the previous job (stream-level double buffering).
  /// Accounting only; the transfer itself was already charged.
  void note_prefetch(std::uint64_t bytes) { prefetch_bytes_.add(bytes); }

  /// Records stream-copy bytes whose transfer window was hidden under the
  /// micro-engine's busy window (copy/compute overlap). Accounting only.
  void note_copy_overlap(std::uint64_t bytes) { overlap_copy_bytes_.add(bytes); }

  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_.value(); }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_.value(); }
  [[nodiscard]] std::uint64_t bursts() const { return bursts_.value(); }
  [[nodiscard]] std::uint64_t overlapped_copy_bytes() const {
    return overlap_copy_bytes_.value();
  }
  /// Ticks stream copies waited on channel contention (start - submit).
  [[nodiscard]] std::uint64_t contended_copy_ticks() const {
    return contended_copy_ticks_.value();
  }
  /// Copy chains placed away from the dedicated copy channel because another
  /// channel was free earlier.
  [[nodiscard]] std::uint64_t copy_migrations() const {
    return copy_migrations_.value();
  }
  [[nodiscard]] const DmaParams& params() const { return params_; }

  void register_stats(support::StatsRegistry& registry,
                      const std::string& prefix = "cim") const;

 private:
  [[nodiscard]] support::Duration block_time(std::uint64_t bytes) const;
  [[nodiscard]] support::Duration strided_time(std::uint64_t bytes) const;

  struct BusyWindow {
    sim::Tick begin = 0;
    sim::Tick end = 0;
    bool engine = false;    ///< engine traffic (vs a stream copy)
    bool advisory = false;  ///< queued-job estimate; dropped at job launch
  };
  void retire_windows_before(sim::Tick horizon);
  /// First tick >= earliest where `channel` has a gap of `duration` ticks.
  [[nodiscard]] sim::Tick first_fit(std::uint32_t channel, sim::Tick earliest,
                                    sim::Tick duration) const;

  DmaParams params_;
  sim::SimMemory& memory_;
  std::vector<std::vector<BusyWindow>> channels_;  ///< sorted by begin
  support::Counter bytes_read_;
  support::Counter bytes_written_;
  support::Counter bursts_;
  support::Counter prefetch_bytes_;
  support::Counter overlap_copy_bytes_;
  support::Counter contended_copy_ticks_;
  support::Counter copy_migrations_;
};

}  // namespace tdo::cim
