#include "src/sim/page_table.h"

namespace mtm {

PageTable::PageTable() : root_(new Node()) { node_count_ = 1; }

PageTable::~PageTable() { FreeNode(root_, kLevels - 1); }

void PageTable::FreeNode(Node* node, int level) {
  if (level > 0) {
    for (u64 i = 0; i < kEntriesPerNode; ++i) {
      if (node->slots[i] != nullptr) {
        FreeNode(static_cast<Node*>(node->slots[i]), level - 1);
      }
    }
  }
  delete node;
}

PageTable::Node* PageTable::EnsureChild(Node* node, u64 index) {
  if (node->slots[index] == nullptr) {
    node->slots[index] = new Node();
    ++node_count_;
  }
  return static_cast<Node*>(node->slots[index]);
}

PageTable::Node* PageTable::WalkTo(VirtAddr addr, int target_level, bool create) {
  Node* node = root_;
  for (int level = kLevels - 1; level > target_level; --level) {
    u64 index = IndexAt(addr, level);
    if (create) {
      node = EnsureChild(node, index);
    } else {
      node = static_cast<Node*>(node->slots[index]);
      if (node == nullptr) {
        return nullptr;
      }
    }
  }
  return node;
}

const PageTable::Node* PageTable::WalkToConst(VirtAddr addr, int target_level) const {
  const Node* node = root_;
  for (int level = kLevels - 1; level > target_level; --level) {
    node = static_cast<const Node*>(node->slots[IndexAt(addr, level)]);
    if (node == nullptr) {
      return nullptr;
    }
  }
  return node;
}

Status PageTable::MapOne(VirtAddr addr, ComponentId component, bool huge) {
  if (huge) {
    Node* node = WalkTo(addr, /*target_level=*/1, /*create=*/true);
    Pte& pte = node->entries[IndexAt(addr, 1)];
    if (pte.present()) {
      return AlreadyExistsError("huge page already mapped");
    }
    if (Node* leaf = static_cast<Node*>(node->slots[IndexAt(addr, 1)]); leaf != nullptr) {
      // A leaf table may linger after all its base pages were unmapped;
      // only live entries block a huge mapping.
      for (const Pte& entry : leaf->entries) {
        if (entry.present()) {
          return AlreadyExistsError("base pages already mapped under huge range");
        }
      }
      delete leaf;
      node->slots[IndexAt(addr, 1)] = nullptr;
      --node_count_;
    }
    pte = Pte{};
    pte.Set(Pte::kPresent);
    pte.Set(Pte::kHuge);
    pte.component = component;
    mapped_bytes_ += kHugePageBytes;
    ++mapped_huge_pages_;
    return OkStatus();
  }
  Node* dir = WalkTo(addr, /*target_level=*/1, /*create=*/true);
  Pte& dir_pte = dir->entries[IndexAt(addr, 1)];
  if (dir_pte.present() && dir_pte.huge()) {
    return AlreadyExistsError("huge page already mapped at this address");
  }
  Node* leaf = EnsureChild(dir, IndexAt(addr, 1));
  Pte& pte = leaf->entries[IndexAt(addr, 0)];
  if (pte.present()) {
    return AlreadyExistsError("page already mapped");
  }
  pte = Pte{};
  pte.Set(Pte::kPresent);
  pte.component = component;
  mapped_bytes_ += kPageBytes;
  ++mapped_base_pages_;
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
  for (VirtAddr addr = start; addr < start + len; addr += page) {
    MTM_RETURN_IF_ERROR(MapOne(addr, component, huge));
  }
  ++generation_;
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
  ++generation_;
  return OkStatus();
}

Status PageTable::SplitHuge(VirtAddr addr) {
  Node* dir = WalkTo(addr, 1, /*create=*/false);
  if (dir == nullptr) {
    return NotFoundError("no mapping");
  }
  u64 index = IndexAt(addr, 1);
  Pte& dir_pte = dir->entries[index];
  if (!dir_pte.present() || !dir_pte.huge()) {
    return FailedPreconditionError("not a huge mapping");
  }
  Pte copy = dir_pte;
  dir_pte = Pte{};
  Node* leaf = EnsureChild(dir, index);
  for (u64 i = 0; i < kPagesPerHugePage; ++i) {
    Pte& pte = leaf->entries[i];
    pte = copy;
    pte.Clear(Pte::kHuge);
  }
  --mapped_huge_pages_;
  mapped_base_pages_ += kPagesPerHugePage;
  ++generation_;
  return OkStatus();
}

Pte* PageTable::Find(VirtAddr addr, Bytes* mapping_size) {
  Node* dir = WalkTo(addr, 1, /*create=*/false);
  if (dir == nullptr) {
    return nullptr;
  }
  u64 index = IndexAt(addr, 1);
  Pte& dir_pte = dir->entries[index];
  if (dir_pte.present()) {
    if (mapping_size != nullptr) {
      *mapping_size = kHugePageBytes;
    }
    return &dir_pte;
  }
  Node* leaf = static_cast<Node*>(dir->slots[index]);
  if (leaf == nullptr) {
    return nullptr;
  }
  Pte& pte = leaf->entries[IndexAt(addr, 0)];
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

void PageTable::ForEachMapping(VirtAddr start, Bytes len,
                               const std::function<void(VirtAddr, Bytes, Pte&)>& fn) {
  VirtAddr addr = PageAlignDown(start);
  const VirtAddr end = start + len;
  while (addr < end) {
    Bytes size;
    Pte* pte = Find(addr, &size);
    if (pte == nullptr) {
      // Skip to the next base page; large sparse holes could be skipped at
      // directory granularity, but profilers only scan mapped VMAs.
      addr += kPageSize;
      continue;
    }
    VirtAddr mapping_start = addr.AlignDown(size.value());
    if (mapping_start >= start) {
      fn(mapping_start, size, *pte);
    }
    addr = mapping_start + size;
  }
}

void PageTable::ForEachMapping(
    VirtAddr start, Bytes len,
    const std::function<void(VirtAddr, Bytes, const Pte&)>& fn) const {
  const_cast<PageTable*>(this)->ForEachMapping(
      start, len, [&fn](VirtAddr a, Bytes s, Pte& p) { fn(a, s, p); });
}

u64 PageTable::ArmWriteTracking(VirtAddr start, Bytes len) {
  u64 armed = 0;
  ForEachMapping(start, len, [&armed](VirtAddr, Bytes, Pte& pte) {
    pte.Set(Pte::kWriteTracked);
    ++armed;
  });
  BumpGeneration();  // the one TLB flush the arming step pays (§7.2)
  return armed;
}

u64 PageTable::DisarmWriteTracking(VirtAddr start, Bytes len) {
  u64 disarmed = 0;
  ForEachMapping(start, len, [&disarmed](VirtAddr, Bytes, Pte& pte) {
    pte.Clear(Pte::kWriteTracked);
    ++disarmed;
  });
  BumpGeneration();
  return disarmed;
}

}  // namespace mtm
