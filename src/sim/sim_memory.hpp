// Flat simulated physical memory, allocated lazily in 4 KiB pages.
//
// Both the host (through the cache hierarchy) and the accelerator DMA
// (uncacheable) read and write the same SimMemory, which is what makes the
// shared-memory offload contract of the paper (Section II-E) observable in
// this reproduction: data written by the interpreted host program is the data
// the crossbar is programmed from.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "support/stats.hpp"

namespace tdo::sim {

using PhysAddr = std::uint64_t;

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kPageShift = 12;

[[nodiscard]] constexpr std::uint64_t page_of(PhysAddr a) { return a >> kPageShift; }
[[nodiscard]] constexpr std::uint64_t page_offset(PhysAddr a) {
  return a & (kPageSize - 1);
}
[[nodiscard]] constexpr PhysAddr page_base(PhysAddr a) {
  return a & ~(kPageSize - 1);
}

/// Memo of the last materialized page one access site touched (see the
/// memoized read_scalar/write_scalar overloads). Value-initialized = empty.
struct PageMemo {
  std::uint64_t page = 0;
  std::uint8_t* data = nullptr;  // null: nothing memoized
};

/// Backing store for physical memory. Pages materialize on first touch and
/// read as zero before that, like fresh anonymous mappings.
class SimMemory {
 public:
  explicit SimMemory(std::uint64_t size_bytes) : size_bytes_{size_bytes} {}

  [[nodiscard]] std::uint64_t size() const { return size_bytes_; }

  void read(PhysAddr addr, std::span<std::uint8_t> out) const;
  void write(PhysAddr addr, std::span<const std::uint8_t> in);

  template <typename T>
  [[nodiscard]] T read_scalar(PhysAddr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::array<std::uint8_t, sizeof(T)> buf;
    read(addr, buf);
    T value;
    std::memcpy(&value, buf.data(), sizeof(T));
    return value;
  }

  template <typename T>
  void write_scalar(PhysAddr addr, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::array<std::uint8_t, sizeof(T)> buf;
    std::memcpy(buf.data(), &value, sizeof(T));
    write(addr, buf);
  }

  /// Scalar access through a per-site page memo: a run of accesses inside
  /// one page costs one page-table lookup instead of one per element. The
  /// memo holds only materialized pages. An access to an absent page takes
  /// the plain path every time (reads zero, allocates nothing) until a write,
  /// through this site or any other, materializes the page. Page storage
  /// never moves, so a memoized page stays valid for the memory's lifetime.
  template <typename T>
  [[nodiscard]] T read_scalar(PhysAddr addr, PageMemo& memo) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (const std::uint8_t* page = memoized_page(addr, sizeof(T), memo)) {
      T value;
      std::memcpy(&value, page + page_offset(addr), sizeof(T));
      return value;
    }
    return read_scalar<T>(addr);
  }

  template <typename T>
  void write_scalar(PhysAddr addr, T value, PageMemo& memo) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (std::uint8_t* page = memoized_page(addr, sizeof(T), memo)) {
      std::memcpy(page + page_offset(addr), &value, sizeof(T));
      return;
    }
    write_scalar<T>(addr, value);
  }

  /// Number of pages currently materialized (for footprint assertions).
  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }

 private:
  using Page = std::array<std::uint8_t, kPageSize>;

  [[nodiscard]] Page& page_for(PhysAddr addr);
  /// The memoized page for an access of `bytes` at `addr`, refreshing `memo`
  /// on a page change or while it is empty; null for an absent page or an
  /// access that straddles two pages.
  [[nodiscard]] std::uint8_t* memoized_page(PhysAddr addr, std::uint64_t bytes,
                                            PageMemo& memo) const {
    if (page_offset(addr) + bytes > kPageSize) return nullptr;
    if (memo.data == nullptr || memo.page != page_of(addr)) {
      memo.page = page_of(addr);
      memo.data = resident_page(addr);
    }
    return memo.data;
  }
  /// Bytes of the page holding `addr`, or null before it materializes.
  [[nodiscard]] std::uint8_t* resident_page(PhysAddr addr) const;

  std::uint64_t size_bytes_;
  // unordered_map of unique_ptr keeps page addresses stable across rehash.
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

}  // namespace tdo::sim
