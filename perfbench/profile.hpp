// Host-clock attribution for the benchmark runner: wall-clock spans around
// the runner's calls into the simulator's layers, plus a SIGPROF stack
// sampler that splits a span's self time among the layers its call ran in.
//
// Nothing here reaches into the simulator: spans are opened and closed by
// the runner around public calls, and samples are classified by the
// namespace of the innermost simulator frame on the interrupted stack
// (tdo::sim -> sim, tdo::pcm -> pcm, ...). Utility namespaces
// (tdo::support, tdo::ir, tdo::topo) and library code are transparent: a
// sample inside them belongs to the nearest layer frame that called them.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// The simulator's layers, in report order. kUnattributed is the runner's
/// own time: the pass root span's self time not claimed by a sample.
enum Layer : int {
  kPolybench = 0,
  kFrontend,
  kCore,
  kExec,
  kSim,
  kCim,
  kPcm,
  kRuntime,
  kServe,
  kObs,
  kUnattributed,
  kLayerCount,
};

[[nodiscard]] const char* layer_name(int layer);

struct Span {
  std::string name;
  int layer = kUnattributed;
  int parent = -1;  ///< index into the recorder's span list; -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer self time of the recorded spans, in seconds.
struct SelfTimes {
  std::array<double, kLayerCount> seconds{};
  double root_seconds = 0.0;  ///< summed duration of the root spans
  std::uint64_t samples = 0;
};

/// In-memory span recorder with an optional stack sampler. Disabled (the
/// untraced runs) it records nothing and costs one branch per call.
class Recorder {
 public:
  Recorder() = default;
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Starts recording spans and, every `sample_us` of process CPU time,
  /// one stack sample. Only one recorder may be enabled at a time.
  void enable(int sample_us);
  /// Stops the sampler; recorded spans and samples stay for analysis.
  void disable();

  [[nodiscard]] int open(const char* name, int layer);
  void close(int id);

  /// Self time per layer over every closed span. A span's self time is its
  /// duration minus its children's. The self time of all spans of one name
  /// is split among layers in proportion to the samples taken while such a
  /// span was the innermost open one (all of it to the spans' own layer
  /// when none landed there).
  [[nodiscard]] SelfTimes self_times();

  /// Sum of the durations of closed spans named `name`, in seconds.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// One JSON object per line: {id, parent, name, layer, start_ns, end_ns}.
  void write_spans(std::ostream& out) const;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int current_ = -1;  ///< innermost open span
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Recorder& recorder, const char* name, int layer)
      : recorder_{recorder}, id_{recorder.open(name, layer)} {}
  ~Scope() { recorder_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  int id_;
};

}  // namespace perfbench
