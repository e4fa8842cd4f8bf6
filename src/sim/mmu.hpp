// Virtual address space + physical frame allocation.
//
// The paper's driver "translates the virtual address used by the host
// processor to a physical address as the accelerator can work only with
// physical addresses" (Section II-E). This MMU provides exactly that
// contract: a per-process page table, a frame allocator for ordinary pages,
// and a reserved physically-contiguous region handed to the CMA allocator.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/sim_memory.hpp"
#include "support/status.hpp"

namespace tdo::sim {

using VirtAddr = std::uint64_t;

/// Bounds of the physically contiguous region reserved at boot for the
/// contiguous memory allocator (CMA).
struct CmaRegion {
  PhysAddr base = 0;
  std::uint64_t size = 0;
};

/// Single-address-space MMU with identity-free VA->PA mapping.
class Mmu {
 public:
  /// Reserves `cma_bytes` at the top of physical memory for CMA.
  Mmu(std::uint64_t phys_bytes, std::uint64_t cma_bytes);

  /// Allocates `bytes` of virtual memory backed by (possibly scattered)
  /// physical frames; returns the starting VA (page aligned).
  [[nodiscard]] support::StatusOr<VirtAddr> allocate(std::uint64_t bytes);

  /// Maps `bytes` of fresh virtual space onto an existing contiguous
  /// physical range (used by the driver to hand CMA buffers to user space).
  [[nodiscard]] support::StatusOr<VirtAddr> map_physical(PhysAddr pa,
                                                         std::uint64_t bytes);

  /// Releases a VA range previously produced by allocate()/map_physical().
  support::Status release(VirtAddr va, std::uint64_t bytes);

  /// Translates one virtual address.
  [[nodiscard]] support::StatusOr<PhysAddr> translate(VirtAddr va) const;

  /// True when [va, va+bytes) maps to physically contiguous frames.
  [[nodiscard]] bool is_contiguous(VirtAddr va, std::uint64_t bytes) const;

  [[nodiscard]] const CmaRegion& cma_region() const { return cma_; }
  [[nodiscard]] std::uint64_t free_frames() const { return free_frames_.size(); }

 private:
  [[nodiscard]] support::StatusOr<PhysAddr> take_frame();

  CmaRegion cma_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;  // vpage -> pframe
  std::vector<PhysAddr> free_frames_;                       // non-CMA frames
  VirtAddr next_va_ = 0x0000'1000;  // never hand out VA 0 (null)
};

}  // namespace tdo::sim
