// Golden host-model counters: every Figure-6 kernel (test preset) run
// host-only, plus a column walk whose stride crosses a page on every access.
//
// The host-CPU model is the part of the simulator that the Arm-A7 bars of
// Figure 6 come from, and its hot path (interpreter access sites, cache
// indexing, counters, page lookups) is tuned for wall-clock speed. These
// values pin its simulated output as exact integers, so any such change that
// moves a single cycle, miss or materialized page fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "frontend/parser.hpp"
#include "polybench/workloads.hpp"
#include "sim/system.hpp"

namespace tdo::exec {
namespace {

struct HostGolden {
  std::string kernel;
  std::uint64_t cycles;
  std::uint64_t instructions;
  std::uint64_t stall_cycles;
  std::uint64_t l1d_hits;
  std::uint64_t l1d_misses;
  std::uint64_t l1d_writebacks;
  std::uint64_t l2_hits;
  std::uint64_t l2_misses;
  std::uint64_t l2_writebacks;
  std::uint64_t dram_accesses;
  std::uint64_t energy_pj;
  std::uint64_t resident_pages;

  bool operator==(const HostGolden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HostGolden& g) {
  return os << "{\"" << g.kernel << "\", " << g.cycles << ", "
            << g.instructions << ", " << g.stall_cycles << ", " << g.l1d_hits
            << ", " << g.l1d_misses << ", " << g.l1d_writebacks << ", "
            << g.l2_hits << ", " << g.l2_misses << ", " << g.l2_writebacks
            << ", " << g.dram_accesses << ", " << g.energy_pj << ", "
            << g.resident_pages << "}";
}

/// Runs `source` host-only on a fresh platform with `inputs` set first.
[[nodiscard]] HostGolden run_host_only(
    const std::string& kernel, const std::string& source,
    const std::map<std::string, std::vector<float>>& inputs) {
  auto fn = frontend::parse_kernel(source);
  EXPECT_TRUE(fn.is_ok()) << fn.status().to_string();
  const Program program = host_only_program(*fn);
  sim::System system;
  Interpreter interp{system, nullptr};
  EXPECT_TRUE(interp.prepare(program).is_ok());
  for (const auto& [name, data] : inputs) {
    EXPECT_TRUE(interp.set_array(name, data).is_ok()) << name;
  }
  const auto status = interp.run(program);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  const auto stats = system.snapshot();
  const double energy_pj = stats.energy_or("host.energy").picojoules();
  EXPECT_EQ(energy_pj, static_cast<double>(static_cast<std::uint64_t>(energy_pj)))
      << "host energy is a whole number of picojoules";
  return HostGolden{kernel,
                    stats.counter_or("host.cycles"),
                    stats.counter_or("host.instructions"),
                    stats.counter_or("host.stall_cycles"),
                    stats.counter_or("l1d.hits"),
                    stats.counter_or("l1d.misses"),
                    stats.counter_or("l1d.writebacks"),
                    stats.counter_or("l2.hits"),
                    stats.counter_or("l2.misses"),
                    stats.counter_or("l2.writebacks"),
                    stats.counter_or("mem.dram_accesses"),
                    static_cast<std::uint64_t>(energy_pj),
                    system.memory().resident_pages()};
}

// Exact simulated output of the host model; a change that moves any of these
// changes the Figure 6 host bars.
const std::vector<HostGolden>& fig6_goldens() {
  static const std::vector<HostGolden> goldens = {
      // kernel, cycles, insts, stalls, l1d hit/miss/wb, l2 hit/miss/wb,
      // dram, energy pJ, resident pages
      {"2mm", 819956, 908840, 47442, 260281, 519, 19, 38, 500, 0, 481, 116331520, 10},
      {"3mm", 830481, 919566, 48850, 283174, 650, 83, 166, 567, 0, 485, 117704448, 14},
      {"gemm", 756711, 842136, 40896, 225360, 432, 16, 16, 432, 0, 416, 107793408, 9},
      {"conv", 463245, 424708, 102244, 111777, 1463, 457, 457, 1463, 0, 1006, 54362624, 24},
      {"gesummv", 95516, 52064, 51262, 16180, 524, 1, 1, 524, 0, 523, 6664192, 11},
      {"bicg", 80892, 63808, 26656, 24432, 272, 0, 0, 272, 0, 272, 8167424, 8},
      {"mvt", 71187, 53312, 25872, 16120, 264, 0, 0, 264, 0, 264, 6823936, 8},
  };
  return goldens;
}

TEST(HostModelGoldenTest, Fig6KernelsMatchCapturedCounters) {
  const auto& goldens = fig6_goldens();
  ASSERT_EQ(goldens.size(), pb::kernel_names().size());
  for (std::size_t i = 0; i < goldens.size(); ++i) {
    const std::string& name = pb::kernel_names()[i];
    auto workload = pb::make_workload(name, pb::Preset::kTest);
    ASSERT_TRUE(workload.is_ok()) << name;
    EXPECT_EQ(run_host_only(name, workload->source, workload->inputs),
              goldens[i]);
  }
}

TEST(HostModelGoldenTest, PageCrossingColumnWalkMatchesCapturedCounters) {
  // A[i][j] with 1024 floats per row: consecutive inner iterations are 4 KiB
  // apart, so every load lands on a different page than the one before. `s`
  // starts unmaterialized, so its first writes materialize pages mid-nest.
  constexpr std::int64_t kRows = 16;
  constexpr std::int64_t kCols = 1024;
  const std::string source = R"(
kernel colsum(R = 16, C = 1024) {
  array float A[R][C];
  array float s[C];
  for (j = 0; j < C; j++)
    for (i = 0; i < R; i++)
      s[j] += A[i][j];
}
)";
  std::vector<float> a(static_cast<std::size_t>(kRows * kCols));
  for (std::size_t e = 0; e < a.size(); ++e) {
    a[e] = static_cast<float>(static_cast<int>(e % 7) - 3) / 4.0f;
  }
  const HostGolden golden = {"colsum", 272409, 57856, 223232, 0, 16384, 0,
                             15360, 1024, 0, 1024, 7405568, 17};
  EXPECT_EQ(run_host_only("colsum", source, {{"A", a}}), golden);
}

}  // namespace
}  // namespace tdo::exec
