// Benchmark runner: runs one workload of the TDO-CIM simulator per process
// and prints every metric as one JSON line on stdout.
//
//   perfbench_runner --workload <pb-host|pb-cim|serve-hot|serve-churn>
//                    --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Two clocks. Simulated metrics (sim_*) come from the simulator's own clock
// and stats registry and repeat exactly per seed. Host metrics (host_s,
// setup_s, ...) are this process's wall clock: a PolyBench pass is timed as
// a whole, a serving pass over its ROI (its cold start is seed-bimodal and
// reported per layer), and the run reports the median after one warm-up.
//
// --trace 1 runs pairs of an untraced and a traced pass. A traced pass records a
// wall-clock span around every call the runner makes into a layer and
// samples the stack (profile.hpp), which gives each layer's self time; on
// the serving workloads it also turns on obs::Tracer for the simulated
// critical-path and energy segments. The traced/untraced pass-time ratio is
// obs.trace_overhead_frac.
//
// Every output is checked: PolyBench kernels against the native double
// reference, a seeded sample of served GEMMs against a host GEMM read back
// through the MMU. Failed operations are counted, never hidden.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cim/accelerator.hpp"
#include "core/pipeline.hpp"
#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "frontend/parser.hpp"
#include "obs/critical_path.hpp"
#include "obs/energy.hpp"
#include "obs/trace.hpp"
#include "polybench/workloads.hpp"
#include "profile.hpp"
#include "runtime/cim_blas.hpp"
#include "serve/scheduler.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using tdo::support::Duration;

/// p99 latency limit of the serving workloads, in simulated microseconds.
constexpr double kSloUs = 500.0;
/// Stack-sampling period of traced passes, in microseconds of CPU time.
constexpr int kSampleUs = 1000;
/// Set-up is repeated at least kSetupReps times and until kSetupMinS has
/// passed (a serving set-up takes milliseconds); setup_s is the median.
constexpr int kSetupReps = 5;
constexpr double kSetupMinS = 1.0;
constexpr int kSetupMaxReps = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the ceil(p * n)-th smallest value.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Ordered name -> (value, unit) list, printed as a JSON object.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  void dump(std::ostream& os) const {
    os << '{';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      os << (i == 0 ? "" : ",") << '"' << items_[i].name << "\":{\"value\":"
         << buf << ",\"unit\":\"" << items_[i].unit << "\"}";
    }
    os << '}';
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Operation accounting behind `attempted`, `failed` and failed_frac.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few failure messages

  void fail(const std::string& what) {
    failed += 1;
    if (notes.size() < 8) notes.push_back(what);
  }
  void check(const tdo::support::Status& status, const char* what) {
    attempted += 1;
    if (!status.is_ok()) fail(std::string(what) + ": " + status.to_string());
  }
};

// --- counters read from the stats registry and the layers' reports --------

struct Counters {
  std::uint64_t host_instructions = 0, host_cycles = 0, host_stall_cycles = 0;
  std::uint64_t l1d_hits = 0, l1d_misses = 0, l2_hits = 0, l2_misses = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t cim_jobs = 0, cim_jobs_failed = 0, mac8 = 0, gemv = 0;
  std::uint64_t writes8 = 0, writes_saved8 = 0, dma_bytes = 0;
  std::uint64_t overlap_ticks = 0, contended_copy_ticks = 0;
  std::uint64_t stream_enqueued = 0, cpu_fallbacks = 0, hazard_syncs = 0;
  std::uint64_t syncs = 0, occupancy_peak = 0, host_copy_bytes = 0;
  std::uint64_t residency_hits = 0, residency_misses = 0;
  std::uint64_t residency_evictions = 0, host_pool_macs = 0, driver_ioctls = 0;

  /// Adds a registry delta. occupancy_peak is a high-water mark: the
  /// largest value seen wins.
  void add(const tdo::support::StatsSnapshot& d, std::uint64_t peak) {
    host_instructions += d.counter_or("host.instructions");
    host_cycles += d.counter_or("host.cycles");
    host_stall_cycles += d.counter_or("host.stall_cycles");
    l1d_hits += d.counter_or("l1d.hits");
    l1d_misses += d.counter_or("l1d.misses");
    l2_hits += d.counter_or("l2.hits");
    l2_misses += d.counter_or("l2.misses");
    dram_accesses += d.counter_or("mem.dram_accesses");
    stream_enqueued += d.counter_or("stream.enqueued");
    cpu_fallbacks += d.counter_or("stream.cpu_fallbacks");
    hazard_syncs += d.counter_or("stream.hazard_syncs");
    syncs += d.counter_or("stream.syncs");
    host_copy_bytes += d.counter_or("xfer.host_copy_bytes");
    residency_hits += d.counter_or("residency.hits");
    residency_misses += d.counter_or("residency.misses");
    residency_evictions += d.counter_or("residency.evictions");
    host_pool_macs += d.counter_or("host_pool.macs");
    driver_ioctls += d.counter_or("driver.ioctls");
    for (const auto& [name, value] : d.counters) {
      if (name.ends_with(".jobs_failed")) cim_jobs_failed += value;
      if (name.ends_with(".dma.bytes_read") ||
          name.ends_with(".dma.bytes_written")) {
        dma_bytes += value;
      }
      if (name.ends_with(".overlap_ticks")) overlap_ticks += value;
      if (name.ends_with(".dma.contended_copy_ticks")) {
        contended_copy_ticks += value;
      }
    }
    occupancy_peak = std::max(occupancy_peak, peak);
  }

  void add(const tdo::cim::AcceleratorReport& after,
           const tdo::cim::AcceleratorReport& before) {
    cim_jobs += after.jobs - before.jobs;
    mac8 += after.mac8_ops - before.mac8_ops;
    gemv += after.gemv_ops - before.gemv_ops;
    writes8 += after.weight_writes8 - before.weight_writes8;
    writes_saved8 += after.weight_writes_saved8 - before.weight_writes_saved8;
  }

  bool operator==(const Counters&) const = default;
};

double energy_pj(const tdo::support::StatsSnapshot& snapshot) {
  double total = 0.0;
  for (const auto& [name, pj] : snapshot.energies_pj) total += pj;
  return total;
}

/// Host, memory, caches and `accelerators` CIM devices behind one runtime —
/// the harness's platform (polybench/harness.cpp) for the PolyBench
/// workloads and the serving bench's fleet for the serving ones.
struct Platform {
  tdo::sim::System system;
  std::vector<std::unique_ptr<tdo::cim::Accelerator>> accels;
  std::unique_ptr<tdo::rt::CimRuntime> runtime;

  Platform(std::size_t accelerators, const tdo::rt::RuntimeConfig& config) {
    const tdo::cim::AcceleratorParams params;
    for (std::size_t i = 0; i < accelerators; ++i) {
      accels.push_back(std::make_unique<tdo::cim::Accelerator>(
          tdo::cim::instance_params(params, i), system));
    }
    runtime = std::make_unique<tdo::rt::CimRuntime>(config, system,
                                                    *accels.front());
    for (std::size_t i = 1; i < accelerators; ++i) {
      runtime->add_accelerator(*accels[i]);
    }
  }

  [[nodiscard]] tdo::cim::AcceleratorReport accel_report() const {
    tdo::cim::AcceleratorReport total;
    for (const auto& accel : accels) {
      const auto r = accel->report();
      total.jobs += r.jobs;
      total.gemv_ops += r.gemv_ops;
      total.mac8_ops += r.mac8_ops;
      total.weight_writes8 += r.weight_writes8;
      total.weight_writes_saved8 += r.weight_writes_saved8;
    }
    return total;
  }

  [[nodiscard]] std::uint64_t occupancy_peak() const {
    return system.snapshot().counter_or("stream.occupancy_peak");
  }
};

/// What every workload's pass yields: simulated results that must repeat
/// exactly from pass to pass, and the layer counters behind them.
struct PassResult {
  std::vector<double> sim;  ///< compared across passes for determinism
  Counters counters;
  /// Host time of the pass's measured part, when that is not the whole
  /// pass (a serving pass measures its ROI).
  std::optional<double> measured_s;
};

/// Per-layer figures only one kind of workload produces. Every run prints
/// all of them; the other kind reports zeros.
struct LayerFigures {
  double make_workload_ms = 0.0;
  std::uint64_t kernels_detected = 0, kernels_fused = 0, kernels_tiled = 0;
  std::uint64_t statements = 0;
  std::uint64_t pump_calls = 0, launches = 0, host_launches = 0;
  std::uint64_t shed = 0, rejected = 0;
  double mean_batch = 0.0, affinity_frac = 0.0, gen_late_us_p99 = 0.0;
  double warmup_s = 0.0;
  std::uint64_t warmup_fallbacks = 0;
  std::array<double, tdo::serve::kDeadlineClasses> class_p99_us{};
  std::array<double, tdo::obs::kSegmentCount> seg_us{};  ///< per request
  std::array<double, tdo::obs::kSegmentCount> seg_uj{};  ///< per request
};

/// A workload: set-up, one pass, and the metrics derived from a pass.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds inputs, references, and whatever the first pass needs.
  virtual void setup() = 0;
  virtual PassResult pass(Recorder& rec, bool traced) = 0;
  /// The untimed pass before the timed ones.
  virtual void warm_up(Recorder& rec) { (void)pass(rec, false); }
  /// Runs the next step of the once-per-run extra measurement (the serving
  /// rate search) between timed passes; false once no step is left.
  virtual bool extra_step() { return false; }
  virtual void e2e_metrics(MetricList& out) = 0;
  virtual void layer_figures(LayerFigures& out) = 0;
  /// Extra JSON members (",\"key\":value" ...) for the full report.
  virtual void details(std::ostream& os) = 0;

  Tally tally;
  double last_pass_s = 0.0;
};

// --- PolyBench workloads (Fig. 6) ------------------------------------------

class PolybenchWorkload final : public Workload {
 public:
  explicit PolybenchWorkload(bool cim) : cim_{cim} {}

  void setup() override {
    const double t0 = now_s();
    kernels_ = make_kernels(tdo::pb::Preset::kPaper);
    make_workload_ms_.push_back((now_s() - t0) * 1e3);
    warm_up_kernels_ = make_kernels(tdo::pb::Preset::kTest);
  }

  PassResult pass(Recorder& rec, bool) override { return run_pass(kernels_, rec); }

  /// Each kernel runs on a fresh platform, so no state carries from one
  /// pass to the next: the warm-up runs the same seven kernels through the
  /// same calls at the unit-test size, which leaves the timed runs their
  /// time for more passes.
  void warm_up(Recorder& rec) override { (void)run_pass(warm_up_kernels_, rec); }

  void e2e_metrics(MetricList& out) override {
    std::vector<double> runtime_us, energy_uj;
    double total_s = 0.0;
    std::uint64_t good = 0;
    for (const KernelRow& row : kernel_rows_) {
      runtime_us.push_back(row.runtime_ps * 1e-6);
      energy_uj.push_back(row.energy_pj * 1e-6);
      total_s += row.runtime_ps * 1e-12;
      good += row.correct ? 1 : 0;
    }
    double mean_uj = 0.0;
    for (const double e : energy_uj) mean_uj += e / static_cast<double>(energy_uj.size());
    out.add("sim_time_ms", geomean(runtime_us) * 1e-3, "sim_ms");
    out.add("sim_energy_mj", geomean(energy_uj) * 1e-3, "mJ");
    out.add("sim_p50_us", percentile(runtime_us, 0.50), "sim_us");
    out.add("sim_p99_us", percentile(runtime_us, 0.99), "sim_us");
    // A kernel has no latency limit: every correct kernel counts, and the
    // highest sustainable rate is back-to-back execution.
    const double rate = ratio(static_cast<double>(good), total_s);
    out.add("sim_goodput_rps", rate, "req/s");
    out.add("sim_max_rps_at_slo", rate, "req/s");
    out.add("sim_energy_uj_per_req", mean_uj, "uJ");
  }

  void layer_figures(LayerFigures& out) override {
    out.make_workload_ms = median(make_workload_ms_);
    out.kernels_detected = detected_;
    out.kernels_fused = fused_;
    out.kernels_tiled = tiled_;
    out.statements = statements_;
  }

  void details(std::ostream& os) override {
    os << ",\"kernels\":[";
    for (std::size_t i = 0; i < kernel_rows_.size(); ++i) {
      const KernelRow& row = kernel_rows_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"runtime_ps\":%.17g,\"energy_pj\":"
                    "%.17g,\"macs_per_write\":%.17g,\"correct\":%s}",
                    i == 0 ? "" : ",", row.name.c_str(), row.runtime_ps,
                    row.energy_pj, row.macs_per_write,
                    row.correct ? "true" : "false");
      os << buf;
    }
    os << ']';
  }

 private:
  struct KernelRow {
    std::string name;
    double runtime_ps = 0.0;
    double energy_pj = 0.0;
    double macs_per_write = 0.0;
    bool correct = false;
  };

  std::vector<tdo::pb::Workload> make_kernels(tdo::pb::Preset preset) {
    std::vector<tdo::pb::Workload> built;
    for (const std::string& name : tdo::pb::kernel_names()) {
      auto w = tdo::pb::make_workload(name, preset);
      tally.check(w.status(), "make_workload");
      if (w.is_ok()) built.push_back(std::move(*w));
    }
    return built;
  }

  PassResult run_pass(const std::vector<tdo::pb::Workload>& kernels,
                      Recorder& rec) {
    Scope pass_span(rec, "pass", kUnattributed);
    PassResult result;
    kernel_rows_.clear();
    detected_ = fused_ = tiled_ = statements_ = 0;
    for (const tdo::pb::Workload& kernel : kernels) {
      Scope kernel_span(rec, "kernel", kUnattributed);
      run_kernel(kernel, rec, result);
    }
    return result;
  }

  void run_kernel(const tdo::pb::Workload& kernel, Recorder& rec,
                  PassResult& result) {
    tally.attempted += 1;
    KernelRow row;
    row.name = kernel.name;
    auto fail = [&](const std::string& what) {
      tally.fail(kernel.name + ": " + what);
      kernel_rows_.push_back(row);
      result.sim.push_back(-1.0);
    };

    std::optional<tdo::support::StatusOr<tdo::ir::Function>> fn;
    {
      Scope s(rec, "parse", kFrontend);
      fn.emplace(tdo::frontend::parse_kernel(kernel.source));
    }
    if (!fn->is_ok()) return fail(fn->status().to_string());

    // The harness's two programs: host_only_program for the Arm-A7 bar,
    // core::compile's CIM program (one accelerator, defaults) for Host+CIM.
    tdo::rt::RuntimeConfig rt_config;
    std::optional<tdo::exec::Program> program;
    if (cim_) {
      Scope s(rec, "compile", kCore);
      tdo::core::CompileResult compiled = tdo::core::compile(**fn);
      rt_config.stream.min_macs_per_write =
          std::max(rt_config.stream.min_macs_per_write,
                   compiled.stream_min_macs_per_write);
      detected_ += compiled.detection.kernels.size();
      for (const auto& report : compiled.reports) {
        fused_ += report.fused ? 1 : 0;
        tiled_ += report.tiled ? 1 : 0;
      }
      program.emplace(std::move(compiled.cim_program));
    } else {
      Scope s(rec, "lower", kExec);
      program.emplace(tdo::exec::host_only_program(**fn));
    }

    // A fresh platform per kernel: the modelled caches start empty, as in
    // the harness's ROI.
    std::unique_ptr<Platform> platform;
    {
      Scope s(rec, "platform", kSim);
      platform = std::make_unique<Platform>(1, rt_config);
    }
    tdo::exec::Interpreter interp{platform->system,
                                  cim_ ? platform->runtime.get() : nullptr};
    {
      Scope s(rec, "prepare", kExec);
      auto status = interp.prepare(*program);
      for (const auto& [name, data] : kernel.inputs) {
        if (status.is_ok()) status = interp.set_array(name, data);
      }
      if (!status.is_ok()) return fail(status.to_string());
    }

    const auto before = platform->system.snapshot();
    const auto accel_before = platform->accel_report();
    const Duration t0 = platform->system.global_time();
    tdo::support::Status status;
    {
      Scope s(rec, "run", kExec);
      status = interp.run(*program);
    }
    const Duration t1 = platform->system.global_time();
    if (!status.is_ok()) return fail(status.to_string());
    const auto delta = platform->system.snapshot().delta_since(before);
    const auto accel_after = platform->accel_report();
    result.counters.add(delta, platform->occupancy_peak());
    result.counters.add(accel_after, accel_before);
    statements_ += interp.statements_executed();

    row.runtime_ps = (t1 - t0).picoseconds();
    row.energy_pj = energy_pj(delta);
    row.macs_per_write = accel_after.macs_per_cim_write();

    double max_err = 0.0;
    {
      Scope s(rec, "validate", kPolybench);
      for (const std::string& name : kernel.outputs) {
        auto got = interp.get_array(name);
        const auto& expected = kernel.expected.at(name);
        if (!got.is_ok() || got->size() != expected.size()) {
          return fail("cannot read output " + name);
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
          max_err = std::max(
              max_err, static_cast<double>(std::fabs((*got)[i] - expected[i])));
        }
      }
    }
    row.correct = max_err <= kernel.tolerance;
    if (!row.correct) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "max error %.6g above tolerance %.6g",
                    max_err, kernel.tolerance);
      tally.fail(kernel.name + ": " + buf);
    }
    kernel_rows_.push_back(row);
    result.sim.push_back(row.runtime_ps);
    result.sim.push_back(row.energy_pj);
  }

  bool cim_;
  std::vector<double> make_workload_ms_;
  std::vector<tdo::pb::Workload> kernels_, warm_up_kernels_;
  std::vector<KernelRow> kernel_rows_;
  std::uint64_t detected_ = 0, fused_ = 0, tiled_ = 0, statements_ = 0;
};

// --- Serving workloads -----------------------------------------------------

struct ServeConfig {
  std::size_t weight_sets = 8;
  double zipf_alpha = 1.0;
  double rate_rps = 24000.0;  ///< the fixed offered rate of a pass
  double search_lo = 24000.0;  ///< rate search grid
  double search_hi = 48000.0;
  double search_step = 1000.0;
};

constexpr std::size_t kTenants = 4;
constexpr std::size_t kClientsPerTenant = 4;
constexpr std::size_t kClients = kTenants * kClientsPerTenant;
/// Requests of a pass and of a rate-search probe. The first quarter of the
/// completions warms the fleet; the rest are the ROI, whose p99 then has
/// 1% of the ROI (45 and 15 samples) beyond it.
constexpr std::size_t kPassRequests = 6000;
constexpr std::size_t kProbeRequests = 2000;
constexpr std::uint64_t kM = 16, kN = 64, kK = 64;
constexpr std::size_t kAccelerators = 2;
/// Share of requests whose output is read back and checked.
constexpr double kCheckShare = 0.125;
/// The rate search runs on this many independently seeded arrival streams
/// and reports the median of their maximum rates.
constexpr std::uint64_t kSearchStreams = 3;

/// The analytic 8-bit quantization bound of polybench/workloads.cpp
/// (gemm_tolerance) for |alpha| = 1 and operands in [-range, range].
double gemm_tolerance(std::uint64_t k, double range) {
  const double e = range / 127.0;
  return static_cast<double>(k) * (2.0 * range * e + e * e) + 1e-3;
}

/// Everything drawn from the seed. The simulator only ever sees these.
struct ServeInputs {
  std::vector<std::vector<float>> weights;      ///< k x n each
  std::vector<std::vector<float>> activations;  ///< m x k per client
  std::vector<double> gap_scale;   ///< per request, times the mean gap
  std::vector<std::uint32_t> weight_of;  ///< Zipf pick per request
  std::vector<bool> check;         ///< oracle sample
};

ServeInputs make_inputs(const ServeConfig& config, std::uint64_t seed) {
  tdo::support::Rng rng{seed * 0x9e3779b97f4a7c15ull + 17};
  auto matrix = [&](std::size_t count) {
    std::vector<float> out(count);
    for (float& v : out) v = rng.uniform_f(-1.0f, 1.0f);
    return out;
  };
  ServeInputs in;
  for (std::size_t w = 0; w < config.weight_sets; ++w) {
    in.weights.push_back(matrix(kK * kN));
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    in.activations.push_back(matrix(kM * kK));
  }
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t i = 1; i <= config.weight_sets; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), config.zipf_alpha);
    cdf.push_back(total);
  }
  for (std::size_t r = 0; r < kPassRequests; ++r) {
    in.gap_scale.push_back(rng.uniform(0.5, 1.5));
    const double u = rng.uniform(0.0, total);
    const auto pick = static_cast<std::uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    in.weight_of.push_back(
        std::min<std::uint32_t>(pick, static_cast<std::uint32_t>(config.weight_sets - 1)));
    in.check.push_back(rng.uniform(0.0, 1.0) < kCheckShare);
  }
  return in;
}

/// A platform with the weight universe and activations uploaded, plus the
/// pool of output buffers. A buffer returns to the pool only when the
/// request writing it has finished, so no checked result can be clobbered.
struct ServeRig {
  Platform platform;
  std::vector<tdo::sim::VirtAddr> weights, activations, free_outputs;
  std::size_t outputs_allocated = 0;

  ServeRig(const ServeInputs& in, Tally& tally)
      : platform{kAccelerators, rig_config()} {
    tally.check(platform.runtime->init(0), "runtime init");
    for (const auto& w : in.weights) weights.push_back(upload(w, tally));
    for (const auto& a : in.activations) activations.push_back(upload(a, tally));
    for (std::size_t i = 0; i < 2 * kClients; ++i) {
      free_outputs.push_back(new_output(tally));
    }
  }

  static tdo::rt::RuntimeConfig rig_config() {
    tdo::rt::RuntimeConfig config;
    config.stream.depth = 2;
    return config;
  }

  tdo::sim::VirtAddr upload(const std::vector<float>& data, Tally& tally) {
    auto va = platform.runtime->malloc_device(data.size() * sizeof(float));
    tally.check(va.status(), "malloc_device");
    if (!va.is_ok()) return 0;
    auto pa = platform.system.mmu().translate(*va);
    tally.check(pa.status(), "translate");
    if (!pa.is_ok()) return *va;
    platform.system.memory().write(
        *pa, std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                       data.size() * sizeof(float)));
    return *va;
  }

  tdo::sim::VirtAddr new_output(Tally& tally) {
    outputs_allocated += 1;
    return upload(std::vector<float>(kM * kN, 0.0f), tally);
  }

  tdo::sim::VirtAddr take_output(Tally& tally) {
    if (free_outputs.empty()) return new_output(tally);
    const tdo::sim::VirtAddr va = free_outputs.back();
    free_outputs.pop_back();
    return va;
  }
};

/// Simulated outcome of one open-loop run at a fixed offered rate.
struct ServeRun {
  std::vector<double> latency_us;  ///< ROI, finished requests
  std::array<std::vector<double>, tdo::serve::kDeadlineClasses> class_us;
  std::vector<double> late_us;     ///< ROI submissions: submit - due
  std::uint64_t roi_done = 0, roi_good = 0;
  double roi_ps = 0.0, roi_energy_pj = 0.0;
  bool backlog_growing = false;
  std::uint64_t pump_calls = 0, launches = 0, affinity = 0;
  std::uint64_t host_launches = 0, shed = 0, rejected = 0;
  std::size_t outputs_allocated = 0;
  Counters counters;
  /// Host wall time before the ROI (platform build and warm-up quarter)
  /// and of the ROI to the end of the run, and host fallbacks before it.
  double warmup_host_s = 0.0, roi_host_s = 0.0;
  std::uint64_t warmup_fallbacks = 0;
  std::array<double, tdo::obs::kSegmentCount> seg_us{};  ///< traced only
  std::array<double, tdo::obs::kSegmentCount> seg_uj{};

  [[nodiscard]] double p99() const { return percentile(latency_us, 0.99); }
  [[nodiscard]] bool meets_slo() const {
    return !latency_us.empty() && p99() <= kSloUs && !backlog_growing;
  }
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeConfig config, std::uint64_t seed)
      : config_{config}, seed_{seed} {}

  void setup() override {
    inputs_ = make_inputs(config_, seed_);
    rig_ = std::make_unique<ServeRig>(inputs_, tally);
  }

  PassResult pass(Recorder& rec, bool traced) override {
    Scope pass_span(rec, "pass", kUnattributed);
    run_ = serve(inputs_, config_.rate_rps, kPassRequests, rec, traced, false);
    PassResult result;
    result.counters = run_.counters;
    result.measured_s = run_.roi_host_s;
    result.sim = run_.latency_us;
    result.sim.push_back(run_.roi_energy_pj);
    result.sim.push_back(run_.roi_ps);
    result.sim.push_back(static_cast<double>(run_.roi_good));
    return result;
  }

  /// The warm-up runs a probe-sized stretch at the fixed rate on the
  /// set-up platform: the same calls as a pass, in a third of its time.
  void warm_up(Recorder& rec) override {
    (void)serve(inputs_, config_.rate_rps, kProbeRequests, rec, false, false);
  }

  /// Highest offered rate on a fixed grid that keeps p99 within the limit
  /// with no growing backlog: bisection over the grid, assuming the
  /// predicate holds below the grid and fails above it. Near the limit a
  /// churning fleet can tip into a fallback storm or not depending on the
  /// arrivals, so the search repeats on independently seeded streams and
  /// reports the median. One step searches one stream; the later streams
  /// gallop out from the first one's answer before they bisect, which
  /// finds the same grid point in fewer probes when they land near it.
  bool extra_step() override {
    if (found_.size() == kSearchStreams) return false;
    const double t0 = now_s();
    Recorder off;
    const auto steps = static_cast<int>(
        std::llround((config_.search_hi - config_.search_lo) / config_.search_step));
    const std::uint64_t stream = found_.size();
    const ServeInputs stream_inputs =
        stream == 0 ? inputs_ : make_inputs(config_, seed_ ^ (stream * 0x5bd1e995ull));
    auto meets_slo = [&](int index) {
      const double rate = config_.search_lo + index * config_.search_step;
      const ServeRun probe = serve(stream_inputs, rate, kProbeRequests, off, false, true);
      search_log_.emplace_back(rate, probe.p99());
      return probe.meets_slo();
    };
    int ok = -1, bad = steps + 1;
    if (stream > 0) {
      const int at = std::clamp(first_ok_, 0, steps);
      if (meets_slo(at)) {
        ok = at;
        for (int stride = 1; ok + stride < bad; stride *= 2) {
          if (!meets_slo(ok + stride)) {
            bad = ok + stride;
            break;
          }
          ok += stride;
        }
      } else {
        bad = at;
        for (int stride = 1; bad - stride > ok; stride *= 2) {
          if (meets_slo(bad - stride)) {
            ok = bad - stride;
            break;
          }
          bad -= stride;
        }
      }
    }
    while (bad - ok > 1) {
      const int mid = (ok + bad) / 2;
      (meets_slo(mid) ? ok : bad) = mid;
    }
    if (stream == 0) first_ok_ = ok;
    found_.push_back(ok < 0 ? 0.0 : config_.search_lo + ok * config_.search_step);
    max_rps_ = median(found_);
    search_s_ += now_s() - t0;
    return found_.size() < kSearchStreams;
  }

  void e2e_metrics(MetricList& out) override {
    const double roi_s = run_.roi_ps * 1e-12;
    out.add("sim_time_ms", run_.roi_ps * 1e-9, "sim_ms");
    out.add("sim_energy_mj", run_.roi_energy_pj * 1e-9, "mJ");
    out.add("sim_p50_us", percentile(run_.latency_us, 0.50), "sim_us");
    out.add("sim_p99_us", run_.p99(), "sim_us");
    out.add("sim_goodput_rps", ratio(static_cast<double>(run_.roi_good), roi_s),
            "req/s");
    out.add("sim_max_rps_at_slo", max_rps_, "req/s");
    out.add("sim_energy_uj_per_req",
            ratio(run_.roi_energy_pj * 1e-6, static_cast<double>(run_.roi_done)),
            "uJ");
  }

  void layer_figures(LayerFigures& out) override {
    out.pump_calls = run_.pump_calls;
    out.launches = run_.launches;
    out.host_launches = run_.host_launches;
    out.shed = run_.shed;
    out.rejected = run_.rejected;
    out.mean_batch = ratio(static_cast<double>(run_.roi_done),
                           static_cast<double>(run_.launches));
    out.affinity_frac = ratio(static_cast<double>(run_.affinity),
                              static_cast<double>(run_.launches));
    out.gen_late_us_p99 = percentile(run_.late_us, 0.99);
    out.warmup_s = run_.warmup_host_s;
    out.warmup_fallbacks = run_.warmup_fallbacks;
    for (std::size_t c = 0; c < tdo::serve::kDeadlineClasses; ++c) {
      out.class_p99_us[c] = percentile(run_.class_us[c], 0.99);
    }
    out.seg_us = run_.seg_us;
    out.seg_uj = run_.seg_uj;
  }

  void details(std::ostream& os) override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\"latency_samples\":%zu,\"output_buffers\":%zu,\"search\":[",
                  run_.latency_us.size(), run_.outputs_allocated);
    os << buf;
    for (std::size_t i = 0; i < search_log_.size(); ++i) {
      // An aborted probe's p99 is unknown beyond "over the limit": null.
      const double p99 = search_log_[i].second;
      std::snprintf(buf, sizeof buf, std::isfinite(p99) ? "%s[%.17g,%.17g]" : "%s[%.17g,null]",
                    i == 0 ? "" : ",", search_log_[i].first, p99);
      os << buf;
    }
    std::snprintf(buf, sizeof buf, "],\"search_s\":%.17g", search_s_);
    os << buf;
  }

 private:
  struct Pending {
    std::size_t index = 0;
    tdo::sim::VirtAddr output = 0;
  };

  /// One open-loop run on a fresh platform (the set-up one for the first
  /// run). Requests are due on a jittered schedule at `rate`; latency runs
  /// from the due time, so a late generator shows in the tail. A `probe`
  /// of the rate search stops as soon as its p99 is certain to miss the
  /// limit.
  ServeRun serve(const ServeInputs& in, double rate, std::size_t requests,
                 Recorder& rec, bool traced, bool probe) {
    const double entered_s = now_s();
    std::unique_ptr<ServeRig> rig = &in == &inputs_ ? std::move(rig_) : nullptr;
    if (!rig) {
      Scope s(rec, "platform", kRuntime);
      rig = std::make_unique<ServeRig>(in, tally);
    }
    auto& system = rig->platform.system;
    auto& tracer = tdo::obs::Tracer::instance();
    if (traced) tracer.start({});

    tdo::serve::SchedulerParams params;
    params.batcher.max_batch = 8;
    params.batcher.max_wait = Duration::from_us(25.0);
    params.admission.probe_period = 0;
    tdo::serve::Scheduler scheduler{params, *rig->platform.runtime};

    std::vector<Duration> due;
    double at_us = 1.0;
    for (std::size_t r = 0; r < requests; ++r) {
      due.push_back(Duration::from_us(at_us));
      at_us += 1e6 / rate * in.gap_scale[r];
    }

    ServeRun out;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::size_t next = 0, finished = 0;
    std::int64_t backlog_mid = -1;
    bool roi_open = false;
    tdo::support::StatsSnapshot roi_stats;
    tdo::cim::AcceleratorReport roi_accel;
    tdo::serve::ServeReport roi_serve;
    Duration roi_start, last_done;
    double roi_host_start_s = 0.0;
    // A probe fails for certain once more requests are known to land in
    // the ROI over the limit than its p99 allows: ROI completions over the
    // limit, plus requests still pending that are already late by the
    // limit, less the ones that could still finish inside the warm-up.
    std::size_t over_limit = 0;
    const std::size_t over_limit_allowed = (requests - requests / 4) / 100;
    std::set<std::size_t> pending_order;  ///< probe only: indices in flight
    auto certain_miss = [&](Duration now) {
      const std::size_t warmup_left =
          finished < requests / 4 ? requests / 4 - finished : 0;
      std::size_t late = 0;
      for (const std::size_t index : pending_order) {
        if (late > over_limit_allowed + warmup_left ||
            due[index] + Duration::from_us(kSloUs) >= now) {
          break;
        }
        late += 1;
      }
      const std::size_t roi_late = late > warmup_left ? late - warmup_left : 0;
      return over_limit + roi_late > over_limit_allowed;
    };

    auto handle = [&](const tdo::serve::Completion& done) {
      const auto it = pending.find(done.id);
      if (it == pending.end()) return;
      const Pending p = it->second;
      pending.erase(it);
      pending_order.erase(p.index);
      finished += 1;
      bool good = done.outcome == tdo::serve::Completion::Outcome::kDone;
      if (!good) tally.fail("request did not finish");
      if (good && in.check[p.index]) {
        Scope s(rec, "validate", kUnattributed);
        good = check_output(in, *rig, p);
      }
      rig->free_outputs.push_back(p.output);
      if (!roi_open || done.outcome != tdo::serve::Completion::Outcome::kDone) {
        return;
      }
      const double us = done.latency().microseconds();
      out.latency_us.push_back(us);
      out.class_us[static_cast<std::size_t>(done.deadline)].push_back(us);
      out.roi_done += 1;
      out.roi_good += good && us <= kSloUs ? 1 : 0;
      over_limit += us > kSloUs ? 1 : 0;
      last_done = std::max(last_done, done.done);
    };

    while (finished < requests) {
      if (probe && certain_miss(system.global_time())) {
        out.latency_us.assign(1, std::numeric_limits<double>::infinity());
        return out;
      }
      if (!roi_open && finished >= requests / 4) {
        roi_open = true;
        roi_stats = system.snapshot();
        roi_accel = rig->platform.accel_report();
        roi_serve = scheduler.report();
        roi_start = last_done = system.global_time();
        out.warmup_fallbacks = roi_stats.counter_or("stream.cpu_fallbacks");
        roi_host_start_s = now_s();
        out.warmup_host_s = roi_host_start_s - entered_s;
      }
      const Duration now = system.global_time();
      bool progressed = false;
      while (next < requests && due[next] <= now) {
        tally.attempted += 1;
        const std::size_t client = next % kClients;
        tdo::serve::Request request;
        request.tenant = static_cast<std::uint32_t>(client / kClientsPerTenant);
        request.deadline = static_cast<tdo::serve::DeadlineClass>(
            request.tenant % tdo::serve::kDeadlineClasses);
        request.m = kM;
        request.n = kN;
        request.k = kK;
        request.a = rig->activations[client];
        request.b = rig->weights[in.weight_of[next]];
        request.c = rig->take_output(tally);
        request.lda = kK;
        request.ldb = kN;
        request.ldc = kN;
        request.arrival = due[next];
        if (roi_open) out.late_us.push_back((now - due[next]).microseconds());
        std::optional<tdo::support::StatusOr<std::uint64_t>> id;
        {
          Scope s(rec, "submit", kServe);
          id.emplace(scheduler.submit(request));
        }
        if (id->is_ok()) {
          pending.emplace(**id, Pending{next, request.c});
          if (probe) pending_order.insert(next);
        } else {
          tally.fail("submit: " + id->status().to_string());
          rig->free_outputs.push_back(request.c);
          finished += 1;
        }
        next += 1;
        progressed = true;
        if (next == requests / 2 || next == requests) {
          const auto backlog = static_cast<std::int64_t>(next - finished);
          if (next == requests / 2) {
            backlog_mid = backlog;
          } else {
            // Growing: the backlog rose by more than 5% of what the second
            // half offered.
            out.backlog_growing =
                static_cast<double>(backlog - backlog_mid) >
                0.05 * static_cast<double>(requests - requests / 2);
          }
        }
      }
      tdo::support::Status status;
      {
        Scope s(rec, "pump", kServe);
        status = scheduler.pump();
      }
      out.pump_calls += 1;
      if (!status.is_ok()) {
        tally.fail("pump: " + status.to_string());
        break;
      }
      if (traced) {
        Scope s(rec, "trace_pump", kObs);
        tracer.pump();
      }
      std::vector<tdo::serve::Completion> done;
      {
        Scope s(rec, "take_completions", kServe);
        done = scheduler.take_completions();
      }
      for (const auto& completion : done) handle(completion);
      if (progressed || !done.empty() || finished >= requests) continue;

      std::optional<tdo::sim::Tick> wake;
      if (next < requests) wake = due[next].ticks();
      bool advanced = false;
      {
        Scope s(rec, "advance", kServe);
        advanced = scheduler.advance_to_next_event(wake);
      }
      if (advanced) continue;
      {
        Scope s(rec, "drain", kServe);
        status = scheduler.drain();
      }
      for (const auto& completion : scheduler.take_completions()) {
        handle(completion);
      }
      if (!status.is_ok() || (next == requests && finished < requests &&
                              scheduler.quiescent())) {
        tally.fail("scheduler stalled with requests outstanding");
        break;
      }
    }
    {
      Scope s(rec, "drain", kServe);
      tally.check(scheduler.drain(), "drain");
    }
    for (const auto& completion : scheduler.take_completions()) handle(completion);
    for (std::size_t lost = finished; lost < requests; ++lost) {
      tally.fail("request lost");
    }

    const auto end_stats = system.snapshot();
    const auto serve = scheduler.report();
    out.roi_ps = (last_done - roi_start).picoseconds();
    out.roi_energy_pj = energy_pj(end_stats) - energy_pj(roi_stats);
    out.counters.add(end_stats.delta_since(roi_stats),
                     end_stats.counter_or("stream.occupancy_peak"));
    out.counters.add(rig->platform.accel_report(), roi_accel);
    out.launches = serve.launches - roi_serve.launches;
    out.affinity = serve.affinity_routed - roi_serve.affinity_routed;
    out.host_launches = serve.host_launches - roi_serve.host_launches;
    out.shed = serve.shed - roi_serve.shed;
    out.rejected = serve.rejected - roi_serve.rejected;
    out.outputs_allocated = rig->outputs_allocated;
    if (traced) {
      Scope s(rec, "trace_analysis", kObs);
      tracer.pump();
      const auto events = tracer.sorted_events();
      if (tracer.dropped() != 0) tally.fail("trace events dropped");
      const auto paths = tdo::obs::decompose(events);
      const auto energy =
          tdo::obs::attribute_energy(events, tdo::obs::default_energy_params());
      for (const auto& path : paths) {
        for (std::size_t seg = 0; seg < tdo::obs::kSegmentCount; ++seg) {
          out.seg_us[seg] += static_cast<double>(path.seg[seg]) * 1e-6 /
                             static_cast<double>(paths.size());
        }
      }
      for (std::size_t seg = 0; seg < tdo::obs::kSegmentCount; ++seg) {
        out.seg_uj[seg] = ratio(static_cast<double>(energy.seg_fj[seg]) * 1e-9,
                                static_cast<double>(paths.size()));
      }
      tracer.stop();
    }
    out.roi_host_s = now_s() - roi_host_start_s;
    return out;
  }

  /// Reads C back through the MMU and compares it with a host GEMM.
  bool check_output(const ServeInputs& in, ServeRig& rig, const Pending& p) {
    auto& system = rig.platform.system;
    std::vector<float> got(kM * kN);
    auto pa = system.mmu().translate(p.output);
    if (!pa.is_ok()) {
      tally.fail("oracle translate: " + pa.status().to_string());
      return false;
    }
    system.memory().read(*pa, std::span(reinterpret_cast<std::uint8_t*>(got.data()),
                                        got.size() * sizeof(float)));
    const auto& a = in.activations[p.index % kClients];
    const auto& w = in.weights[in.weight_of[p.index]];
    const double tolerance = gemm_tolerance(kK, 1.0);
    double max_err = 0.0;
    for (std::uint64_t i = 0; i < kM; ++i) {
      for (std::uint64_t j = 0; j < kN; ++j) {
        double acc = 0.0;
        for (std::uint64_t k = 0; k < kK; ++k) {
          acc += static_cast<double>(a[i * kK + k]) * w[k * kN + j];
        }
        max_err = std::max(max_err, std::fabs(acc - got[i * kN + j]));
      }
    }
    if (max_err <= tolerance) return true;
    char buf[128];
    std::snprintf(buf, sizeof buf, "request %zu: max error %.6g above %.6g",
                  p.index, max_err, tolerance);
    tally.fail(buf);
    return false;
  }

  ServeConfig config_;
  std::uint64_t seed_;
  ServeInputs inputs_;
  std::unique_ptr<ServeRig> rig_;  ///< set-up platform, used by the first run
  ServeRun run_;
  std::vector<double> found_;  ///< maximum rate per searched stream
  int first_ok_ = -1;          ///< grid index the first stream found
  double max_rps_ = 0.0;
  double search_s_ = 0.0;
  std::vector<std::pair<double, double>> search_log_;  ///< (rate, p99 us)
};

// --- the run ---------------------------------------------------------------

std::unique_ptr<Workload> make(const Options& opts) {
  if (opts.workload == "pb-host") return std::make_unique<PolybenchWorkload>(false);
  if (opts.workload == "pb-cim") return std::make_unique<PolybenchWorkload>(true);
  if (opts.workload == "serve-hot") {
    return std::make_unique<ServeWorkload>(ServeConfig{}, opts.seed);
  }
  if (opts.workload == "serve-churn") {
    ServeConfig churn;
    churn.weight_sets = 64;
    churn.zipf_alpha = 0.8;
    churn.rate_rps = 6000.0;
    churn.search_lo = 2000.0;
    churn.search_hi = 12000.0;
    churn.search_step = 500.0;
    return std::make_unique<ServeWorkload>(churn, opts.seed);
  }
  return nullptr;
}

void layer_counters(const Counters& c, double exec_sim_s, double cim_pcm_s,
                    MetricList& out) {
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  out.add("sim.host_instructions", n(c.host_instructions), "count");
  out.add("sim.host_cycles", n(c.host_cycles), "count");
  out.add("sim.host_stall_cycles", n(c.host_stall_cycles), "count");
  out.add("sim.l1d_hit_ratio", ratio(n(c.l1d_hits), n(c.l1d_hits + c.l1d_misses)),
          "ratio");
  out.add("sim.l2_hit_ratio", ratio(n(c.l2_hits), n(c.l2_hits + c.l2_misses)),
          "ratio");
  out.add("sim.dram_accesses", n(c.dram_accesses), "count");
  out.add("sim.host_ns_per_inst", ratio(exec_sim_s * 1e9, n(c.host_instructions)),
          "ns/inst");
  out.add("cim.jobs", n(c.cim_jobs), "count");
  out.add("cim.jobs_failed", n(c.cim_jobs_failed), "count");
  out.add("cim.mac8_ops", n(c.mac8), "count");
  out.add("cim.gemv_ops", n(c.gemv), "count");
  out.add("cim.weight_writes8", n(c.writes8), "count");
  out.add("cim.weight_writes_saved8", n(c.writes_saved8), "count");
  out.add("cim.dma_bytes", n(c.dma_bytes), "bytes");
  out.add("cim.overlap_ticks", n(c.overlap_ticks), "ps");
  out.add("cim.contended_copy_ticks", n(c.contended_copy_ticks), "ps");
  out.add("cim.host_ns_per_mac", ratio(cim_pcm_s * 1e9, n(c.mac8)), "ns/mac");
  out.add("runtime.stream_enqueued", n(c.stream_enqueued), "count");
  out.add("runtime.cpu_fallbacks", n(c.cpu_fallbacks), "count");
  out.add("runtime.fallback_frac", ratio(n(c.cpu_fallbacks), n(c.stream_enqueued)),
          "ratio");
  out.add("runtime.hazard_syncs", n(c.hazard_syncs), "count");
  out.add("runtime.syncs", n(c.syncs), "count");
  out.add("runtime.occupancy_peak", n(c.occupancy_peak), "count");
  out.add("runtime.host_copy_bytes", n(c.host_copy_bytes), "bytes");
  out.add("runtime.residency_hit_ratio",
          ratio(n(c.residency_hits), n(c.residency_hits + c.residency_misses)),
          "ratio");
  out.add("runtime.residency_evictions", n(c.residency_evictions), "count");
  out.add("runtime.host_pool_macs", n(c.host_pool_macs), "count");
  out.add("runtime.driver_ioctls", n(c.driver_ioctls), "count");
}

int run(const Options& opts) {
  std::unique_ptr<Workload> workload = make(opts);
  if (!workload) {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
    return 2;
  }
  // Set-up, repeated; the last one stays for the first pass.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (int rep = 0; rep < kSetupMaxReps &&
                    (rep < kSetupReps || setup_total < kSetupMinS);
       ++rep) {
    const double t0 = now_s();
    workload->setup();
    setup_s.push_back(now_s() - t0);
    setup_total += setup_s.back();
  }

  const double start = now_s();
  Recorder rec;
  std::array<std::vector<double>, 2> whole_s;  ///< whole passes: untraced, traced
  auto timed_pass = [&](bool traced, PassResult* out) {
    if (traced) rec.enable(kSampleUs);
    const double t0 = now_s();
    *out = workload->pass(rec, traced);
    const double dt = now_s() - t0;
    if (traced) rec.disable();
    workload->last_pass_s = dt;
    whole_s[traced ? 1 : 0].push_back(dt);
    return out->measured_s.value_or(dt);
  };

  workload->warm_up(rec);

  // Untraced passes until the next pass would overrun the run's time; under
  // --trace 1, pairs of an untraced and a traced pass, so the run ends on a
  // traced pass, whose figures the per-layer metrics report. Every pass
  // must reproduce the first one's simulated results exactly. Untraced runs
  // do one step of the extra measurement after each pass, so the timed
  // passes spread over the whole run and a spell of a slow host moves fewer
  // of them.
  std::vector<double> plain_s, traced_s;
  std::optional<PassResult> first;
  bool deterministic = true;
  bool extra_left = !opts.trace;
  for (;;) {
    const bool traced = opts.trace && traced_s.size() < plain_s.size();
    PassResult result;
    (traced ? traced_s : plain_s).push_back(timed_pass(traced, &result));
    if (!first) first = result;
    deterministic = deterministic && result.sim == first->sim &&
                    result.counters == first->counters;
    if (extra_left) extra_left = workload->extra_step();
    if (opts.trace && !traced) continue;
    const double next_s = (opts.trace ? 2.0 : 1.0) * workload->last_pass_s;
    if (now_s() - start + next_s > opts.seconds) {
      while (extra_left) extra_left = workload->extra_step();
      break;
    }
  }
  if (!deterministic) workload->tally.fail("simulated results differ between passes");

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const Tally& tally = workload->tally;

  MetricList e2e;
  e2e.add("setup_s", median(setup_s), "s");
  e2e.add("host_s", median(plain_s), "s");
  e2e.add("host_peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  workload->e2e_metrics(e2e);

  MetricList layers;
  const SelfTimes self = rec.self_times();
  const double traced_passes = std::max<double>(1.0, static_cast<double>(traced_s.size()));
  std::array<double, kLayerCount> per_pass{};
  double self_sum = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    per_pass[l] = self.seconds[l] / traced_passes;
    self_sum += per_pass[l];
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    layers.add(std::string(layer_name(static_cast<int>(l))) + ".self_s", per_pass[l], "s");
  }
  auto span_total = [&](const char* name) {
    return rec.total_seconds(name) / traced_passes;
  };
  LayerFigures fig;
  workload->layer_figures(fig);
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  layers.add("polybench.make_workload_ms", fig.make_workload_ms, "ms");
  layers.add("frontend.parse_ms", span_total("parse") * 1e3, "ms");
  layers.add("core.compile_ms", span_total("compile") * 1e3, "ms");
  layers.add("core.kernels_detected", n(fig.kernels_detected), "count");
  layers.add("core.kernels_fused", n(fig.kernels_fused), "count");
  layers.add("core.kernels_tiled", n(fig.kernels_tiled), "count");
  layers.add("exec.run_s", span_total("run"), "s");
  layers.add("exec.statements", n(fig.statements), "count");
  layer_counters(first->counters, per_pass[kExec] + per_pass[kSim],
                 per_pass[kCim] + per_pass[kPcm], layers);
  layers.add("serve.submit_s", span_total("submit"), "s");
  layers.add("serve.pump_s", span_total("pump"), "s");
  layers.add("serve.advance_s", span_total("advance"), "s");
  layers.add("serve.pump_calls", n(fig.pump_calls), "count");
  layers.add("serve.launches", n(fig.launches), "count");
  layers.add("serve.mean_batch", fig.mean_batch, "req/launch");
  layers.add("serve.affinity_frac", fig.affinity_frac, "ratio");
  layers.add("serve.host_launches", n(fig.host_launches), "count");
  layers.add("serve.shed", n(fig.shed), "count");
  layers.add("serve.rejected", n(fig.rejected), "count");
  for (std::size_t c = 0; c < tdo::serve::kDeadlineClasses; ++c) {
    layers.add(std::string("serve.p99_us.") +
                   tdo::serve::to_string(static_cast<tdo::serve::DeadlineClass>(c)),
               fig.class_p99_us[c], "sim_us");
  }
  layers.add("serve.gen_late_us_p99", fig.gen_late_us_p99, "sim_us");
  layers.add("serve.warmup_s", fig.warmup_s, "s");
  layers.add("runtime.warmup_fallbacks", n(fig.warmup_fallbacks), "count");
  for (std::size_t seg = 0; seg < tdo::obs::kSegmentCount; ++seg) {
    layers.add(std::string("obs.seg.") + tdo::obs::segment_name(seg) + "_us",
               fig.seg_us[seg], "sim_us/req");
  }
  for (std::size_t seg = 0; seg < tdo::obs::kSegmentCount; ++seg) {
    layers.add(std::string("obs.energy.") + tdo::obs::segment_name(seg) + "_uj",
               fig.seg_uj[seg], "uJ/req");
  }
  layers.add("obs.trace_overhead_frac",
             opts.trace ? ratio(median(whole_s[1]), median(whole_s[0])) - 1.0 : 0.0,
             "ratio");
  layers.add("failed_frac",
             ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
             "ratio");

  if (!opts.spans_path.empty()) {
    std::ofstream spans(opts.spans_path, std::ios::binary);
    rec.write_spans(spans);
  }

  std::ostringstream os;
  os << "{\"workload\":\"" << opts.workload << "\",\"seed\":" << opts.seed
     << ",\"trace\":" << (opts.trace ? 1 : 0)
     << ",\"correct\":" << (tally.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
     << ",\"deterministic\":" << (deterministic ? "true" : "false")
     << ",\"passes\":" << plain_s.size() << ",\"traced_passes\":" << traced_s.size();
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ",\"traced_pass_s\":%.17g,\"self_sum_s\":%.17g,\"samples\":%llu",
                self.root_seconds / traced_passes, self_sum,
                static_cast<unsigned long long>(self.samples));
  os << buf << ",\"pass_s\":[";
  for (std::size_t i = 0; i < plain_s.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", plain_s[i]);
    os << buf;
  }
  os << "],\"failures\":[";
  for (std::size_t i = 0; i < tally.notes.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"';
    for (const char ch : tally.notes[i]) {
      if (ch == '"' || ch == '\\') os << '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) os << ch;
    }
    os << '"';
  }
  os << "],\"e2e\":";
  e2e.dump(os);
  os << ",\"layers\":";
  layers.dump(os);
  workload->details(os);
  os << "}\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--spans") {
      opts.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opts.workload.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload <pb-host|pb-cim|serve-hot|serve-churn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(opts);
}
