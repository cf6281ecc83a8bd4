#include "src/sim/page_table.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mtm {

namespace {

// First slot of `dirs` whose directory index is not below `index`.
template <typename Dirs>
auto LowerBound(Dirs& dirs, u64 index) {
  return std::lower_bound(dirs.begin(), dirs.end(), index,
                          [](const auto& dir, u64 i) { return dir->index < i; });
}

}  // namespace

PageTable::Directory* PageTable::FindDirectory(VirtAddr addr) {
  const u64 index = addr.Shifted(kDirShift);
  if (last_hit_ < dirs_.size() && dirs_[last_hit_]->index == index) {
    return dirs_[last_hit_].get();
  }
  auto it = LowerBound(dirs_, index);
  if (it == dirs_.end() || (*it)->index != index) {
    return nullptr;
  }
  last_hit_ = static_cast<std::size_t>(it - dirs_.begin());
  return it->get();
}

PageTable::Directory& PageTable::EnsureDirectory(VirtAddr addr) {
  if (Directory* dir = FindDirectory(addr); dir != nullptr) {
    return *dir;
  }
  auto dir = std::make_unique<Directory>();
  dir->index = addr.Shifted(kDirShift);
  auto it = dirs_.insert(LowerBound(dirs_, dir->index), std::move(dir));
  last_hit_ = static_cast<std::size_t>(it - dirs_.begin());
  return **it;
}

Status PageTable::MapChunk(VirtAddr start, VirtAddr end, ComponentId component, bool huge) {
  Chunk& chunk = EnsureDirectory(start).chunks[ChunkIndex(start)];
  if (huge) {
    if (chunk.huge.present()) {
      return AlreadyExistsError("huge page already mapped");
    }
    if (chunk.leaf != nullptr) {
      // A leaf may linger after all its base pages were unmapped; only live
      // entries block a huge mapping.
      for (const Pte& entry : chunk.leaf->entries) {
        if (entry.present()) {
          return AlreadyExistsError("base pages already mapped under huge range");
        }
      }
      chunk.leaf.reset();
    }
    chunk.huge = Pte{};
    chunk.huge.Set(Pte::kPresent);
    chunk.huge.Set(Pte::kHuge);
    chunk.huge.component = component;
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
  auto first = chunk.leaf->entries.begin() + (start.Shifted(kPageShift) & (kPagesPerHugePage - 1));
  auto last = first + static_cast<std::ptrdiff_t>((end - start) >> kPageShift);
  if (std::any_of(first, last, [](const Pte& pte) { return pte.present(); })) {
    return AlreadyExistsError("page already mapped");
  }
  Pte pte;
  pte.Set(Pte::kPresent);
  pte.component = component;
  std::fill(first, last, pte);
  const u64 pages = static_cast<u64>(last - first);
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
  VirtAddr addr = start;
  const VirtAddr end = start + len;
  while (addr < end) {
    Bytes size;
    Pte* pte = Find(addr, &size);
    if (pte == nullptr) {
      addr += kPageSize;
      continue;
    }
    VirtAddr mapping_start = addr.AlignDown(size.value());
    if (mapping_start < start || mapping_start + size > end) {
      return InvalidArgumentError("unmap range splits a mapping");
    }
    if (size == kHugePageBytes) {
      mapped_bytes_ -= kHugePageBytes;
      --mapped_huge_pages_;
    } else {
      mapped_bytes_ -= kPageBytes;
      --mapped_base_pages_;
    }
    *pte = Pte{};
    addr = mapping_start + size;
  }
  return OkStatus();
}

Status PageTable::SplitHuge(VirtAddr addr) {
  Directory* dir = FindDirectory(addr);
  if (dir == nullptr) {
    return NotFoundError("no mapping");
  }
  Chunk& chunk = dir->chunks[ChunkIndex(addr)];
  if (!chunk.huge.present()) {
    return FailedPreconditionError("not a huge mapping");
  }
  Pte copy = chunk.huge;
  copy.Clear(Pte::kHuge);
  chunk.huge = Pte{};
  if (chunk.leaf == nullptr) {
    chunk.leaf = std::make_unique<Leaf>();
  }
  chunk.leaf->entries.fill(copy);
  --mapped_huge_pages_;
  mapped_base_pages_ += kPagesPerHugePage;
  return OkStatus();
}

Pte* PageTable::Find(VirtAddr addr, Bytes* mapping_size) {
  Directory* dir = FindDirectory(addr);
  if (dir == nullptr) {
    return nullptr;
  }
  Chunk& chunk = dir->chunks[ChunkIndex(addr)];
  if (chunk.huge.present()) {
    if (mapping_size != nullptr) {
      *mapping_size = kHugePageBytes;
    }
    return &chunk.huge;
  }
  if (chunk.leaf == nullptr) {
    return nullptr;
  }
  Pte& pte = chunk.leaf->entries[addr.Shifted(kPageShift) & (kPagesPerHugePage - 1)];
  if (!pte.present()) {
    return nullptr;
  }
  if (mapping_size != nullptr) {
    *mapping_size = kPageBytes;
  }
  return &pte;
}

const Pte* PageTable::Find(VirtAddr addr, Bytes* mapping_size) const {
  return const_cast<PageTable*>(this)->Find(addr, mapping_size);
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

template <typename Visit>
VirtAddr PageTable::Walk(VirtAddr start, Bytes len, const Visit& visit) {
  const VirtAddr end = start + len;
  for (auto it = LowerBound(dirs_, start.Shifted(kDirShift)); it != dirs_.end(); ++it) {
    Directory& dir = **it;
    const VirtAddr dir_start(dir.index << kDirShift);
    for (u64 c = dir_start < start ? ChunkIndex(start) : 0; c < kChunksPerDir; ++c) {
      const VirtAddr chunk_start = dir_start + c * kHugePageSize;
      if (chunk_start >= end) {
        return VirtAddr{};
      }
      Chunk& chunk = dir.chunks[c];
      if (chunk.huge.present()) {
        if (chunk_start >= start && visit(chunk_start, kHugePageBytes, chunk.huge)) {
          return chunk_start;
        }
        continue;
      }
      if (chunk.leaf == nullptr) {
        continue;
      }
      // The first base page starting at or after `start`.
      u64 p = chunk_start < start ? (PageAlignUp(start) - chunk_start) >> kPageShift : 0;
      for (; p < kPagesPerHugePage; ++p) {
        const VirtAddr page_start = chunk_start + p * kPageSize;
        if (page_start >= end) {
          return VirtAddr{};
        }
        Pte& pte = chunk.leaf->entries[p];
        if (pte.present() && visit(page_start, kPageBytes, pte)) {
          return page_start;
        }
      }
    }
  }
  return VirtAddr{};
}

VirtAddr PageTable::FindMapping(VirtAddr start, Bytes len,
                                const std::function<bool(VirtAddr, Bytes, Pte&)>& pred) {
  return Walk(start, len, pred);
}

void PageTable::ForEachMapping(VirtAddr start, Bytes len,
                               const std::function<void(VirtAddr, Bytes, Pte&)>& fn) {
  Walk(start, len, [&fn](VirtAddr addr, Bytes size, Pte& pte) {
    fn(addr, size, pte);
    return false;
  });
}

void PageTable::ForEachMapping(
    VirtAddr start, Bytes len,
    const std::function<void(VirtAddr, Bytes, const Pte&)>& fn) const {
  const_cast<PageTable*>(this)->Walk(start, len, [&fn](VirtAddr addr, Bytes size, Pte& pte) {
    fn(addr, size, pte);
    return false;
  });
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
