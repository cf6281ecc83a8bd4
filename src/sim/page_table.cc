#include "src/sim/page_table.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace mtm {

u32 PageTable::Leaf::ResidentMask() const {
  u32 mask = 0;
  for (u32 c = 0; c < kMaxComponents; ++c) {
    mask |= resident[c] != 0 ? u32{1} << c : 0;
  }
  return mask;
}

PageTable::Directory& PageTable::EnsureDirectory(VirtAddr addr) {
  const u64 index = addr.Shifted(kDirShift);
  if (dirs_.empty()) {
    first_dir_ = index;
  } else if (index < first_dir_) {
    // Slide the index up to make room below: the directories themselves
    // stay where they are.
    std::vector<std::unique_ptr<Directory>> grown(dirs_.size() + (first_dir_ - index));
    std::move(dirs_.begin(), dirs_.end(), grown.end() - static_cast<std::ptrdiff_t>(dirs_.size()));
    dirs_ = std::move(grown);
    first_dir_ = index;
  }
  const u64 slot = index - first_dir_;
  if (slot >= dirs_.size()) {
    dirs_.resize(slot + 1);
  }
  if (dirs_[slot] == nullptr) {
    dirs_[slot] = std::make_unique<Directory>();
  }
  return *dirs_[slot];
}

Status PageTable::MapChunk(VirtAddr start, VirtAddr end, ComponentId component, bool huge) {
  MTM_CHECK_LT(component.value(), kMaxComponents);
  Chunk& chunk = EnsureDirectory(start).chunks[ChunkIndex(start)];
  if (huge) {
    if (chunk.huge.present()) {
      return AlreadyExistsError("huge page already mapped");
    }
    if (chunk.leaf != nullptr) {
      // A leaf may linger after all its base pages were unmapped; only live
      // entries block a huge mapping.
      if (chunk.leaf->ResidentMask() != 0) {
        return AlreadyExistsError("base pages already mapped under huge range");
      }
      chunk.leaf.reset();
    }
    chunk.huge = Pte{};
    chunk.huge.Set(Pte::kPresent);
    chunk.huge.Set(Pte::kHuge);
    chunk.huge.component_ = static_cast<u8>(component.value());
    mapped_bytes_ += kHugePageBytes;
    ++mapped_huge_pages_;
    return OkStatus();
  }
  if (chunk.huge.present()) {
    return AlreadyExistsError("huge page already mapped at this address");
  }
  if (chunk.leaf == nullptr) {
    chunk.leaf = std::make_unique<Leaf>();
  }
  auto first = chunk.leaf->entries.begin() + static_cast<std::ptrdiff_t>(PageIndex(start));
  auto last = first + static_cast<std::ptrdiff_t>((end - start) >> kPageShift);
  if (std::any_of(first, last, [](const Pte& pte) { return pte.present(); })) {
    return AlreadyExistsError("page already mapped");
  }
  Pte pte;
  pte.Set(Pte::kPresent);
  pte.component_ = static_cast<u8>(component.value());
  std::fill(first, last, pte);
  const u64 pages = static_cast<u64>(last - first);
  chunk.leaf->resident[component.value()] += static_cast<u16>(pages);
  mapped_bytes_ += kPageBytes * pages;
  mapped_base_pages_ += pages;
  return OkStatus();
}

Status PageTable::MapRange(VirtAddr start, Bytes len, ComponentId component, bool huge) {
  if (len.IsZero()) {
    return InvalidArgumentError("zero-length map");
  }
  const u64 page = huge ? kHugePageSize : kPageSize;
  if (!start.IsAligned(page) || (len.value() & (page - 1)) != 0) {
    return InvalidArgumentError("unaligned map range");
  }
  const VirtAddr end = start + len;
  for (VirtAddr addr = start; addr < end;) {
    const VirtAddr chunk_end = std::min(HugeAlignDown(addr) + kHugePageSize, end);
    if (Status status = MapChunk(addr, chunk_end, component, huge); !status.ok()) {
      // Unmap the pages this call mapped so a failed map changes nothing.
      MTM_CHECK(UnmapRange(start, Bytes(addr - start)).ok());
      return status;
    }
    addr = chunk_end;
  }
  return OkStatus();
}

Status PageTable::UnmapRange(VirtAddr start, Bytes len) {
  if (!start.IsAligned(kPageSize) || (len.value() & (kPageSize - 1)) != 0) {
    return InvalidArgumentError("unaligned unmap range");
  }
  const VirtAddr end = start + len;
  for (VirtAddr addr = start; addr < end;) {
    Chunk* chunk = FindChunk(*this, addr);
    if (chunk != nullptr && chunk->huge.present()) {
      const VirtAddr chunk_start = HugeAlignDown(addr);
      if (chunk_start < start || chunk_start + kHugePageSize > end) {
        return InvalidArgumentError("unmap range splits a mapping");
      }
      chunk->huge = Pte{};
      mapped_bytes_ -= kHugePageBytes;
      --mapped_huge_pages_;
      addr = chunk_start + kHugePageSize;
      continue;
    }
    if (chunk != nullptr && chunk->leaf != nullptr) {
      Pte& pte = chunk->leaf->entries[PageIndex(addr)];
      if (pte.present()) {
        --chunk->leaf->resident[pte.component_];
        pte = Pte{};
        mapped_bytes_ -= kPageBytes;
        --mapped_base_pages_;
      }
    }
    addr += kPageSize;
  }
  return OkStatus();
}

Status PageTable::SplitHuge(VirtAddr addr) {
  Chunk* chunk = FindChunk(*this, addr);
  if (chunk == nullptr) {
    return NotFoundError("no mapping");
  }
  if (!chunk->huge.present()) {
    return FailedPreconditionError("not a huge mapping");
  }
  Pte copy = chunk->huge;
  copy.Clear(Pte::kHuge);
  chunk->huge = Pte{};
  // A huge mapping never shares its chunk with a leaf (MapChunk frees an
  // empty one), so the new leaf holds only the split entries.
  chunk->leaf = std::make_unique<Leaf>();
  chunk->leaf->entries.fill(copy);
  chunk->leaf->resident[copy.component_] = kPagesPerHugePage;
  --mapped_huge_pages_;
  mapped_base_pages_ += kPagesPerHugePage;
  return OkStatus();
}

void PageTable::SetComponent(VirtAddr addr, Pte& pte, ComponentId component) {
  MTM_CHECK_LT(component.value(), kMaxComponents);
  MTM_CHECK(pte.present());
  if (!pte.huge()) {
    Chunk* chunk = FindChunk(*this, addr);
    MTM_CHECK(chunk != nullptr && chunk->leaf != nullptr &&
              &chunk->leaf->entries[PageIndex(addr)] == &pte);
    --chunk->leaf->resident[pte.component_];
    ++chunk->leaf->resident[component.value()];
  }
  pte.component_ = static_cast<u8>(component.value());
}

ComponentId PageTable::RangeComponent(VirtAddr start, Bytes len) const {
  const Pte* pte = Find(start);
  if (pte == nullptr) {
    pte = Find(start + len / 2);
  }
  return pte == nullptr ? kInvalidComponent : pte->component();
}

PageTable::TouchResult PageTable::Touch(VirtAddr addr, bool is_write, Pte** entry_out) {
  Pte* pte = Find(addr);
  if (pte == nullptr) {
    return TouchResult::kNotPresent;
  }
  if (entry_out != nullptr) {
    *entry_out = pte;
  }
  if (is_write && pte->write_tracked()) {
    return TouchResult::kWriteTrackFault;
  }
  pte->Set(Pte::kAccessed);
  if (is_write) {
    pte->Set(Pte::kDirty);
  }
  return TouchResult::kOk;
}

bool PageTable::ScanAccessed(VirtAddr addr, bool* accessed_out) {
  Pte* pte = Find(addr);
  if (pte == nullptr) {
    return false;
  }
  *accessed_out = pte->accessed();
  pte->Clear(Pte::kAccessed);
  return true;
}

VirtAddr PageTable::FindMappingOn(VirtAddr start, Bytes len, u32 component_mask,
                                  ComponentId* component) const {
  ComponentId found = kInvalidComponent;
  const VirtAddr addr = WalkChunks(
      *this, start, len, [&](VirtAddr chunk_start, const Chunk& chunk, u64 first, u64 last) {
        if (chunk.huge.present()) {
          if ((ComponentBit(chunk.huge.component()) & component_mask) == 0) {
            return VirtAddr{};
          }
          found = chunk.huge.component();
          return chunk_start;
        }
        if ((chunk.leaf->ResidentMask() & component_mask) == 0) {
          return VirtAddr{};
        }
        for (u64 p = first; p < last; ++p) {
          const Pte& pte = chunk.leaf->entries[p];
          if (pte.present() && (ComponentBit(pte.component()) & component_mask) != 0) {
            found = pte.component();
            return chunk_start + p * kPageSize;
          }
        }
        return VirtAddr{};
      });
  if (component != nullptr) {
    *component = found;
  }
  return addr;
}

PageTable::Residency PageTable::CountMappings(VirtAddr start, Bytes len,
                                              u32 component_mask) const {
  Residency counts;
  WalkChunks(
      *this, start, len, [&](VirtAddr, const Chunk& chunk, u64 first, u64 last) {
        if (chunk.huge.present()) {
          if ((ComponentBit(chunk.huge.component()) & component_mask) != 0) {
            ++counts.huge_pages[chunk.huge.component().value()];
          }
          return VirtAddr{};
        }
        const Leaf& leaf = *chunk.leaf;
        if (first == 0 && last == kPagesPerHugePage) {
          for (u32 c = 0; c < kMaxComponents; ++c) {
            if ((component_mask >> c) & 1) {
              counts.base_pages[c] += leaf.resident[c];
            }
          }
          return VirtAddr{};
        }
        if ((leaf.ResidentMask() & component_mask) == 0) {
          return VirtAddr{};
        }
        for (u64 p = first; p < last; ++p) {
          const Pte& pte = leaf.entries[p];
          if (pte.present() && (ComponentBit(pte.component()) & component_mask) != 0) {
            ++counts.base_pages[pte.component_];
          }
        }
        return VirtAddr{};
      });
  return counts;
}

Status PageTable::AuditResidencyCounts() const {
  for (u64 slot = 0; slot < dirs_.size(); ++slot) {
    const Directory* dir = dirs_[slot].get();
    if (dir == nullptr) {
      continue;
    }
    for (u64 c = 0; c < kChunksPerDir; ++c) {
      const Chunk& chunk = dir->chunks[c];
      if (chunk.leaf == nullptr) {
        continue;
      }
      std::array<u16, kMaxComponents> recount{};
      for (const Pte& pte : chunk.leaf->entries) {
        if (pte.present()) {
          ++recount[pte.component_];
        }
      }
      if (recount != chunk.leaf->resident) {
        std::ostringstream msg;
        msg << "residency counts of the leaf at 0x" << std::hex
            << ((first_dir_ + slot) << kDirShift) + c * kHugePageSize << " differ from its entries";
        return InternalError(msg.str());
      }
    }
  }
  return OkStatus();
}

u64 PageTable::ArmWriteTracking(VirtAddr start, Bytes len) {
  u64 armed = 0;
  ForEachMapping(start, len, [&armed](VirtAddr, Bytes, Pte& pte) {
    pte.Set(Pte::kWriteTracked);
    ++armed;
  });
  return armed;
}

u64 PageTable::DisarmWriteTracking(VirtAddr start, Bytes len) {
  u64 disarmed = 0;
  ForEachMapping(start, len, [&disarmed](VirtAddr, Bytes, Pte& pte) {
    pte.Clear(Pte::kWriteTracked);
    ++disarmed;
  });
  return disarmed;
}

}  // namespace mtm
