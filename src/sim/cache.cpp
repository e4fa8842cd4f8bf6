#include "sim/cache.hpp"

#include <bit>
#include <cassert>

namespace tdo::sim {

Cache::Cache(CacheParams params) : params_{std::move(params)} {
  assert(std::has_single_bit(params_.line_bytes));
  assert(params_.size_bytes % (static_cast<std::uint64_t>(params_.line_bytes) *
                               params_.ways) ==
         0);
  const auto sets = static_cast<std::uint32_t>(
      params_.size_bytes / (static_cast<std::uint64_t>(params_.line_bytes) *
                            params_.ways));
  assert(std::has_single_bit(sets));
  set_mask_ = sets - 1;
  line_shift_ = static_cast<std::uint8_t>(std::countr_zero(params_.line_bytes));
  tag_shift_ = static_cast<std::uint8_t>(line_shift_ + std::countr_zero(sets));
  lines_.resize(static_cast<std::size_t>(sets) * params_.ways);
}

CacheOutcome Cache::access(PhysAddr addr, bool is_write, bool* evicted_dirty) {
  if (evicted_dirty != nullptr) *evicted_dirty = false;
  const std::uint64_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Line* begin = &lines_[set * params_.ways];

  Line* victim = begin;
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    Line& line = begin[w];
    const bool line_valid = valid(line);
    if (line_valid && line.tag == tag) {
      line.lru_stamp = ++stamp_;
      if (is_write && !line.dirty) {
        line.dirty = true;
        ++dirty_lines_;
      }
      hits_.add();
      return CacheOutcome::kHit;
    }
    if (!line_valid) {
      victim = &line;  // prefer an invalid way
    } else if (valid(*victim) && line.lru_stamp < victim->lru_stamp) {
      victim = &line;
    }
  }

  misses_.add();
  if (valid(*victim) && victim->dirty) {
    writebacks_.add();
    --dirty_lines_;
    if (evicted_dirty != nullptr) *evicted_dirty = true;
  }
  victim->epoch = epoch_;
  victim->dirty = is_write;
  if (is_write) ++dirty_lines_;
  victim->tag = tag;
  victim->lru_stamp = ++stamp_;
  return CacheOutcome::kMiss;
}

std::uint64_t Cache::flush_all() {
  const std::uint64_t dirty = dirty_lines_;
  dirty_lines_ = 0;
  if (++epoch_ == 0) {
    // Epoch wrap: clear every line's stale epoch so none can match again.
    for (Line& line : lines_) line.epoch = 0;
    epoch_ = 1;
  }
  flushes_.add();
  writebacks_.add(dirty);
  return dirty;
}

std::uint64_t Cache::flush_range(PhysAddr addr, std::uint64_t bytes) {
  std::uint64_t dirty = 0;
  const PhysAddr first_line = addr >> line_shift_;
  const PhysAddr last_line = (addr + bytes + params_.line_bytes - 1) >> line_shift_;
  for (PhysAddr lineno = first_line; lineno < last_line; ++lineno) {
    const PhysAddr line_addr = lineno << line_shift_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    Line* begin = &lines_[set * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
      Line& line = begin[w];
      if (valid(line) && line.tag == tag) {
        if (line.dirty) ++dirty;
        line.epoch = 0;
      }
    }
  }
  dirty_lines_ -= dirty;
  flushes_.add();
  writebacks_.add(dirty);
  return dirty;
}

void Cache::register_stats(support::StatsRegistry& registry) const {
  registry.register_counter(params_.name + ".hits", &hits_);
  registry.register_counter(params_.name + ".misses", &misses_);
  registry.register_counter(params_.name + ".writebacks", &writebacks_);
  registry.register_counter(params_.name + ".flushes", &flushes_);
}

CacheHierarchy::CacheHierarchy(CacheParams l1i, CacheParams l1d, CacheParams l2,
                               Latencies latencies)
    : l1i_{std::move(l1i)}, l1d_{std::move(l1d)}, l2_{std::move(l2)},
      latencies_{latencies} {}

std::uint64_t CacheHierarchy::data_access(PhysAddr addr, bool is_write) {
  bool dirty_victim = false;
  if (l1d_.access(addr, is_write, &dirty_victim) == CacheOutcome::kHit) {
    return 0;
  }
  // L1 victim write-back installs into L2 (traffic only, no extra stall:
  // write-back buffers hide it from the load path).
  if (dirty_victim) {
    bool l2_victim = false;
    (void)l2_.access(addr, /*is_write=*/true, &l2_victim);
    if (l2_victim) dram_accesses_.add();
  }
  bool l2_dirty_victim = false;
  if (l2_.access(addr, /*is_write=*/false, &l2_dirty_victim) == CacheOutcome::kHit) {
    return latencies_.l2_hit_cycles;
  }
  if (l2_dirty_victim) dram_accesses_.add();
  dram_accesses_.add();
  return latencies_.l2_hit_cycles + latencies_.dram_cycles;
}

std::uint64_t CacheHierarchy::flush_data_caches() {
  return l1d_.flush_all() + l2_.flush_all();
}

void CacheHierarchy::register_stats(support::StatsRegistry& registry) const {
  l1i_.register_stats(registry);
  l1d_.register_stats(registry);
  l2_.register_stats(registry);
  registry.register_counter("mem.dram_accesses", &dram_accesses_);
}

}  // namespace tdo::sim
