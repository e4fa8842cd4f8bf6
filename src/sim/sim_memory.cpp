#include "sim/sim_memory.hpp"

#include <algorithm>
#include <cassert>

namespace tdo::sim {

SimMemory::Page& SimMemory::page_for(PhysAddr addr) {
  assert(addr < size_bytes_ && "physical address out of range");
  auto& slot = pages_[page_of(addr)];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  return *slot;
}

std::uint8_t* SimMemory::resident_page(PhysAddr addr) const {
  assert(addr < size_bytes_ && "physical address out of range");
  const auto it = pages_.find(page_of(addr));
  return it == pages_.end() ? nullptr : it->second->data();
}

void SimMemory::read(PhysAddr addr, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const PhysAddr current = addr + done;
    const std::size_t in_page =
        std::min<std::size_t>(out.size() - done, kPageSize - page_offset(current));
    if (const std::uint8_t* page = resident_page(current)) {
      std::memcpy(out.data() + done, page + page_offset(current), in_page);
    } else {
      std::memset(out.data() + done, 0, in_page);
    }
    done += in_page;
  }
}

void SimMemory::write(PhysAddr addr, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const PhysAddr current = addr + done;
    const std::size_t in_page =
        std::min<std::size_t>(in.size() - done, kPageSize - page_offset(current));
    Page& page = page_for(current);
    std::memcpy(page.data() + page_offset(current), in.data() + done, in_page);
    done += in_page;
  }
}

}  // namespace tdo::sim
