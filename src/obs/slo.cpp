#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace tdo::obs {

namespace {

/// Stand-in burn for "budget is zero but errors happened" — large enough to
/// clear any sane threshold, finite so the milli-unit trace args stay sane.
constexpr double kInfiniteBurn = 1e9;

}  // namespace

SloMonitor::SloMonitor(SloParams params, std::vector<SloSpec> specs)
    : params_{params} {
  if (params_.fast_window_ticks == 0) params_.fast_window_ticks = 1;
  if (params_.slow_window_ticks < params_.fast_window_ticks) {
    params_.slow_window_ticks = params_.fast_window_ticks;
  }
  tracked_.reserve(specs.size());
  for (SloSpec& spec : specs) {
    tracked_.push_back(Tracked{std::move(spec), {}, false, false});
  }
}

void SloMonitor::attach(support::StatsRegistry& registry) {
  registry.register_counter("obs.slo_breaches", &breach_counter_);
}

void SloMonitor::detach(support::StatsRegistry& registry) {
  registry.unregister_counter(&breach_counter_);
}

std::pair<double, double> SloMonitor::window_burn(
    const Tracked& tracked, std::uint64_t window_ticks) {
  if (tracked.series.size() < 2) return {0.0, 0.0};
  const Point& now = tracked.series.back();
  if (now.tick < window_ticks) return {0.0, 0.0};
  const std::uint64_t start = now.tick - window_ticks;
  // Baseline: the latest point at or before the window start. If every
  // older point is inside the window the series does not span it yet.
  const Point* base = nullptr;
  for (const Point& p : tracked.series) {
    if (p.tick > start) break;
    base = &p;
  }
  if (base == nullptr || base == &now) return {0.0, 0.0};

  double latency_burn = 0.0;
  if (tracked.spec.latency_target_ps > 0) {
    const std::uint64_t dcount = now.lat_count - base->lat_count;
    if (dcount > 0) {
      const double mean_ps =
          static_cast<double>(now.lat_sum_ps - base->lat_sum_ps) /
          static_cast<double>(dcount);
      latency_burn =
          mean_ps / static_cast<double>(tracked.spec.latency_target_ps);
    }
  }

  double shed_burn = 0.0;
  if (tracked.spec.shed_budget >= 0.0) {
    const std::uint64_t dshed = now.shed - base->shed;
    const std::uint64_t drequests = now.requests - base->requests;
    if (dshed > 0) {
      const double fraction = drequests > 0
                                  ? static_cast<double>(dshed) /
                                        static_cast<double>(drequests)
                                  : 1.0;
      shed_burn = tracked.spec.shed_budget > 0.0
                      ? fraction / tracked.spec.shed_budget
                      : kInfiniteBurn;
    }
  }
  return {latency_burn, shed_burn};
}

void SloMonitor::note_breach(std::uint64_t tick, const std::string& cls,
                             const char* kind, double fast_burn,
                             double slow_burn) {
  breaches_.push_back(SloBreach{tick, cls, kind, fast_burn, slow_burn});
  breach_counter_.add();
  if (enabled()) {
    const auto milli = [](double burn) {
      return static_cast<std::uint64_t>(
          std::llround(std::min(burn, kInfiniteBurn) * 1000.0));
    };
    Tracer::instance().instant(
        "slo", cls + "." + kind, tick,
        {{"fast_milli", milli(fast_burn)}, {"slow_milli", milli(slow_burn)}});
  }
}

void SloMonitor::on_sample(std::uint64_t tick,
                           const support::StatsSnapshot& snapshot) {
  for (Tracked& tracked : tracked_) {
    const std::string latency_key = "serve.latency." + tracked.spec.cls;
    Point point;
    point.tick = tick;
    point.lat_count = snapshot.counter_or(latency_key + ".count");
    point.lat_sum_ps = snapshot.counter_or(latency_key + ".sum_ps");
    point.shed = snapshot.counter_or("serve.shed." + tracked.spec.cls);
    point.requests = snapshot.counter_or("serve.requests");
    tracked.series.push_back(point);
    // Keep exactly one baseline candidate older than the slow window.
    const std::uint64_t horizon =
        tick >= params_.slow_window_ticks ? tick - params_.slow_window_ticks
                                          : 0;
    while (tracked.series.size() > 2 && tracked.series[1].tick <= horizon) {
      tracked.series.pop_front();
    }

    const auto [fast_latency, fast_shed] =
        window_burn(tracked, params_.fast_window_ticks);
    const auto [slow_latency, slow_shed] =
        window_burn(tracked, params_.slow_window_ticks);

    const bool latency_hot = fast_latency >= params_.burn_threshold &&
                             slow_latency >= params_.burn_threshold;
    if (latency_hot && !tracked.latency_breached) {
      note_breach(tick, tracked.spec.cls, "latency", fast_latency,
                  slow_latency);
    }
    tracked.latency_breached = latency_hot;

    const bool shed_hot = fast_shed >= params_.burn_threshold &&
                          slow_shed >= params_.burn_threshold;
    if (shed_hot && !tracked.shed_breached) {
      note_breach(tick, tracked.spec.cls, "shed", fast_shed, slow_shed);
    }
    tracked.shed_breached = shed_hot;
  }
}

}  // namespace tdo::obs
