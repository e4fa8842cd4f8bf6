// Observe-only SLO burn-rate monitor over the sampled metrics series.
//
// Classic SRE multi-window evaluation: each per-class objective (a latency
// target, a shed budget) is checked over a *fast* and a *slow* trailing
// window of the metrics samples. The burn rate is "how fast the error budget
// is being consumed relative to target" (1.0 = exactly on target); a breach
// fires only on the rising edge of BOTH windows crossing the threshold —
// the fast window gives detection latency, the slow window rides out noise
// spikes, and together they can never page on a single bad sample.
//
// SLIs are derived from counters the scheduler already exports:
//   latency: windowed mean = d(serve.latency.<cls>.sum_ps) / d(.count),
//            burn = mean / target
//   shed:    windowed fraction = d(serve.shed.<cls>) / d(serve.requests),
//            burn = fraction / budget
// Windowed deltas use the latest sample at or before (now - W) as the
// baseline; until the series spans a full window the burn is 0 (insufficient
// data never breaches).
//
// Observe-only by design: a breach appends to the breach list, bumps the
// `obs.slo_breaches` counter, and emits an instant on the `slo` trace track.
// No control action — shedding/admission stay owned by the scheduler.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace tdo::obs {

struct SloSpec {
  /// Deadline-class track suffix ("interactive", "standard", "batch").
  std::string cls;
  /// Latency objective: windowed mean completion latency must stay at or
  /// under this many picoseconds. 0 disables the latency SLI for this class.
  std::uint64_t latency_target_ps = 0;
  /// Shed objective: windowed shed fraction (of submitted requests) must
  /// stay at or under this budget. < 0 disables the shed SLI.
  double shed_budget = -1.0;
};

struct SloParams {
  /// Trailing windows, in simulated ticks. fast <= slow.
  std::uint64_t fast_window_ticks = 0;
  std::uint64_t slow_window_ticks = 0;
  /// Both windows' burn rates must reach this to breach (1.0 = on target).
  double burn_threshold = 1.0;
};

struct SloBreach {
  std::uint64_t tick = 0;
  std::string cls;
  std::string kind;  // "latency" | "shed"
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

class SloMonitor {
 public:
  SloMonitor(SloParams params, std::vector<SloSpec> specs);

  /// Registers/deregisters the `obs.slo_breaches` counter. attach() before
  /// sampling starts; detach() before the registry outlives the monitor.
  void attach(support::StatsRegistry& registry);
  void detach(support::StatsRegistry& registry);

  /// Evaluates every spec against the new sample (driver thread; called by
  /// MetricsRegistry after each sample lands).
  void on_sample(std::uint64_t tick, const support::StatsSnapshot& snapshot);

  [[nodiscard]] const std::vector<SloBreach>& breaches() const {
    return breaches_;
  }
  [[nodiscard]] std::uint64_t breach_count() const {
    return breach_counter_.value();
  }
  [[nodiscard]] const SloParams& params() const { return params_; }

 private:
  struct Point {
    std::uint64_t tick = 0;
    std::uint64_t lat_count = 0;
    std::uint64_t lat_sum_ps = 0;
    std::uint64_t shed = 0;
    std::uint64_t requests = 0;
  };

  struct Tracked {
    SloSpec spec;
    std::deque<Point> series;
    bool latency_breached = false;
    bool shed_breached = false;
  };

  /// Burn rates over the trailing window ending at the newest point;
  /// {latency_burn, shed_burn}. Zero when the series does not yet span W.
  [[nodiscard]] static std::pair<double, double> window_burn(
      const Tracked& tracked, std::uint64_t window_ticks);

  void note_breach(std::uint64_t tick, const std::string& cls,
                   const char* kind, double fast_burn, double slow_burn);

  SloParams params_;
  std::vector<Tracked> tracked_;
  std::vector<SloBreach> breaches_;
  support::Counter breach_counter_;
};

}  // namespace tdo::obs
