#include "profile.hpp"

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr int kDepth = 24;
constexpr std::size_t kMaxSamples = 1u << 16;

struct RawSample {
  std::array<void*, kDepth> frames{};
  void* pc = nullptr;  ///< interrupted instruction
  int depth = 0;
  int span = -1;
};

// Signal-handler state. The buffer is sized before the timer is first
// armed and never resized; the handler only writes into it.
std::vector<RawSample> g_samples;
std::atomic<std::size_t> g_sample_count{0};
std::atomic<int> g_current_span{-1};
std::atomic<bool> g_armed{false};

void on_sigprof(int, siginfo_t*, void* context) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const std::size_t i = g_sample_count.load(std::memory_order_relaxed);
  if (i >= g_samples.size()) return;
  const int saved_errno = errno;
  RawSample& sample = g_samples[i];
  sample.depth = backtrace(sample.frames.data(), kDepth);
  sample.pc = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
  sample.span = g_current_span.load(std::memory_order_relaxed);
  g_sample_count.store(i + 1, std::memory_order_relaxed);
  errno = saved_errno;
}

constexpr int kTransparent = -1;  ///< utility or library frame: look outward
constexpr int kBench = -2;        ///< the benchmark's own frame: stop

/// Layer of a mangled symbol from its leading namespaces (`_ZN3tdo3sim...`,
/// `_ZNK3tdo2rt...`, lambdas `_ZZN3tdo...`).
int classify_mangled(std::string_view s) {
  if (!s.starts_with("_Z")) return kTransparent;
  s.remove_prefix(2);
  if (s.starts_with("Z")) s.remove_prefix(1);
  if (!s.starts_with("N")) return kTransparent;
  s.remove_prefix(1);
  while (!s.empty() && (s[0] == 'r' || s[0] == 'V' || s[0] == 'K' ||
                        s[0] == 'R' || s[0] == 'O')) {
    s.remove_prefix(1);
  }
  if (s.starts_with("9perfbench")) return kBench;
  if (!s.starts_with("3tdo")) return kTransparent;
  s.remove_prefix(4);
  std::size_t len = 0;
  std::size_t digits = 0;
  while (digits < s.size() && s[digits] >= '0' && s[digits] <= '9') {
    len = len * 10 + static_cast<std::size_t>(s[digits] - '0');
    ++digits;
  }
  if (digits == 0 || digits + len > s.size()) return kTransparent;
  const std::string_view ns = s.substr(digits, len);
  if (ns == "pb") return kPolybench;
  if (ns == "frontend") return kFrontend;
  if (ns == "core") return kCore;
  if (ns == "exec") return kExec;
  if (ns == "sim") return kSim;
  if (ns == "cim") return kCim;
  if (ns == "pcm") return kPcm;
  if (ns == "rt") return kRuntime;
  if (ns == "serve") return kServe;
  if (ns == "obs") return kObs;
  return kTransparent;  // support, ir, topo
}

class SymbolCache {
 public:
  int classify(void* address) {
    const auto it = cache_.find(address);
    if (it != cache_.end()) return it->second;
    Dl_info info{};
    int layer = kTransparent;
    if (dladdr(address, &info) != 0 && info.dli_sname != nullptr) {
      layer = classify_mangled(info.dli_sname);
    }
    cache_.emplace(address, layer);
    return layer;
  }

 private:
  std::unordered_map<void*, int> cache_;
};

/// Innermost layer on a sample's stack; `fallback` when the walk reaches
/// the benchmark's own code (or the stack holds no simulator frame).
int sample_layer(const RawSample& sample, SymbolCache& symbols, int fallback) {
  int first = 0;
  for (int i = 0; i < sample.depth; ++i) {
    if (sample.frames[static_cast<std::size_t>(i)] == sample.pc) {
      first = i;
      break;
    }
  }
  for (int i = first; i < sample.depth; ++i) {
    auto* frame = static_cast<char*>(sample.frames[static_cast<std::size_t>(i)]);
    // Caller frames hold return addresses; step back into the call.
    const int layer = symbols.classify(i == first ? frame : frame - 1);
    if (layer == kBench) return fallback;
    if (layer >= 0) return layer;
  }
  return fallback;
}

}  // namespace

const char* layer_name(int layer) {
  static constexpr std::array<const char*, kLayerCount> kNames{
      "polybench", "frontend", "core", "exec",  "sim",         "cim",
      "pcm",       "runtime",  "serve", "obs",  "unattributed"};
  return kNames.at(static_cast<std::size_t>(layer));
}

Recorder::~Recorder() { disable(); }

void Recorder::enable(int sample_us) {
  if (g_samples.empty()) g_samples.resize(kMaxSamples);
  enabled_ = true;
  // The first backtrace() call loads the unwinder; do it outside the handler.
  std::array<void*, 4> warm{};
  (void)backtrace(warm.data(), static_cast<int>(warm.size()));
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  g_armed.store(true, std::memory_order_relaxed);
  itimerval timer{};
  timer.it_interval.tv_usec = sample_us;
  timer.it_value.tv_usec = sample_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void Recorder::disable() {
  if (!enabled_) return;
  itimerval timer{};
  setitimer(ITIMER_PROF, &timer, nullptr);
  g_armed.store(false, std::memory_order_relaxed);
  enabled_ = false;
}

int Recorder::open(const char* name, int layer) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = current_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  current_ = id;
  g_current_span.store(id, std::memory_order_relaxed);
  return id;
}

void Recorder::close(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  current_ = span.parent;
  g_current_span.store(current_, std::memory_order_relaxed);
}

SelfTimes Recorder::self_times() {
  // Spans of one name are one kind of call (every "pump", every "run").
  // Calls are often much shorter than the sampling period, so the samples
  // of a kind are pooled and split the kind's summed self time.
  struct Kind {
    int layer = kUnattributed;
    double self_s = 0.0;
    std::array<std::uint64_t, kLayerCount> hits{};
  };
  std::map<std::string, Kind> kinds;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  SelfTimes out;
  for (const Span& span : spans_) {
    const std::int64_t ns = span.end_ns - span.start_ns;
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += ns;
    } else {
      out.root_seconds += static_cast<double>(ns) * 1e-9;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Kind& kind = kinds[span.name];
    kind.layer = span.layer;
    kind.self_s +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  SymbolCache symbols;
  const std::size_t taken = g_sample_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < taken; ++i) {
    const RawSample& sample = g_samples[i];
    if (sample.span < 0 || static_cast<std::size_t>(sample.span) >= spans_.size()) {
      continue;
    }
    const Span& span = spans_[static_cast<std::size_t>(sample.span)];
    kinds[span.name].hits[static_cast<std::size_t>(
        sample_layer(sample, symbols, span.layer))] += 1;
    out.samples += 1;
  }
  for (const auto& [name, kind] : kinds) {
    std::uint64_t total = 0;
    for (const std::uint64_t h : kind.hits) total += h;
    if (total == 0) {
      out.seconds[static_cast<std::size_t>(kind.layer)] += kind.self_s;
      continue;
    }
    for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
      out.seconds[layer] += kind.self_s * static_cast<double>(kind.hits[layer]) /
                            static_cast<double>(total);
    }
  }
  return out;
}

double Recorder::total_seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Recorder::write_spans(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << span.parent << ",\"name\":\""
        << span.name << "\",\"layer\":\"" << layer_name(span.layer)
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
}

}  // namespace perfbench
