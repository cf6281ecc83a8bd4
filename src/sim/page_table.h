// Simulated page table.
//
// This reproduces the part of the x86-64/Linux MMU that the paper's
// profiling mechanisms depend on:
//   * per-PTE accessed bit, set by the MMU on every access and cleared by
//     PTE-scan profilers (read-and-clear, no TLB flush — §5);
//   * per-PTE dirty bit, set on writes (used by move_memory_regions()'s
//     dirtiness tracking, §7.2);
//   * a reserved software bit (the paper uses PTE bit 11) that
//     move_memory_regions() uses to arm write-protect faults;
//   * 2 MiB huge-page leaf entries at the last-level page-directory level,
//     so a huge page has exactly one accessed/dirty bit (§5.4);
//   * the component (memory node) a page resides on, changed by migration.
//
// Profiling and migration read only these bits, so the table is the
// shallowest structure that holds them: a dense vector of heap-owned 1 GiB
// directories, indexed by directory number from the lowest one ever mapped
// (an empty slot for an absent directory), each an array of 512 chunks of
// 2 MiB. A chunk holds either one huge-page entry or a 512-entry leaf of
// base-page entries. Find is inlined: one subtraction and bounds test pick
// the directory, then it indexes at most twice, with no search and no
// state written. The range walks (FindMapping, ForEachMapping) are
// templates over the visitor, so a caller's lambda is inlined into the leaf
// loop, and they skip absent directories and leaves whole. The index grows
// by one pointer per GiB between the lowest and highest directory: 2 MiB
// for the whole 48-bit address space, a few hundred bytes for a run whose
// VMAs sit together.
//
// Each leaf also counts its present entries per component. A huge entry
// names its one component already, so together they let the residency
// queries (FindMappingOn, CountMappings) skip a chunk with no page on the
// components asked for, or sum a chunk the range covers whole, without
// reading its 512 entries. Only MapRange, UnmapRange, SplitHuge and
// SetComponent change a component, and each keeps the counts exact.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace mtm {

// Page table entry: eight bytes, since the table is most of a large run's
// memory (DESIGN.md §9).
struct Pte {
  enum Flags : u8 {
    kPresent = 1u << 0,
    kAccessed = 1u << 1,
    kDirty = 1u << 2,
    kHuge = 1u << 3,
    // Software write-protect armed by move_memory_regions() dirty tracking:
    // the next write faults instead of silently setting the dirty bit.
    kWriteTracked = 1u << 4,
    // The reserved bit (bit 11 in the paper) available to software.
    kReserved = 1u << 5,
    // NUMA-balancing hint-fault arming: the next access faults, letting the
    // kernel record which socket touched the page, then clears the flag.
    kHintArmed = 1u << 6,
  };

  // Deterministic stand-in for the page's contents: every simulated write
  // folds the address into this word (see MixPayload). The migration copy
  // engine snapshots it when staging an asynchronous copy and checksums it,
  // so "no lost update" is a testable property rather than a modeling
  // assumption. Placement and cost never read it.
  u32 payload = 0;
  u8 flags = 0;

  // The component the page resides on; kInvalidComponent while unmapped.
  ComponentId component() const {
    return component_ == kNoComponent ? kInvalidComponent : ComponentId(component_);
  }
  bool present() const { return flags & kPresent; }
  bool accessed() const { return flags & kAccessed; }
  bool dirty() const { return flags & kDirty; }
  bool huge() const { return flags & kHuge; }
  bool write_tracked() const { return flags & kWriteTracked; }

  void Set(Flags f) { flags |= f; }
  void Clear(Flags f) { flags = static_cast<u8>(flags & ~f); }

 private:
  // Only the table writes the component (MapRange, SplitHuge, SetComponent),
  // so its per-leaf residency counts stay exact.
  friend class PageTable;
  static constexpr u8 kNoComponent = 0xff;

  u8 component_ = kNoComponent;
};
static_assert(sizeof(Pte) == 8);

// One simulated write's effect on a page payload: a murmur3-style 32-bit
// mix of the old payload and the written address. Non-commutative, so
// reordered or lost writes produce a different payload — exactly what the
// migration copy-checksum tests need to detect.
inline constexpr u32 MixPayload(u32 payload, VirtAddr addr) {
  const u64 a = addr.value();
  u32 x = payload ^ (static_cast<u32>(a ^ (a >> 32)) + 0x9e3779b9u);
  x = (x ^ (x >> 16)) * 0x85ebca6bu;
  x = (x ^ (x >> 13)) * 0xc2b2ae35u;
  return x ^ (x >> 16);
}

// The bit of `component` in a component mask (FindMappingOn,
// CountMappings); 0 for an id past the mask, such as kInvalidComponent.
inline constexpr u32 ComponentBit(ComponentId component) {
  return component.value() < 32 ? u32{1} << component.value() : 0;
}

class PageTable {
 public:
  // Components the table counts residency for: every mapped component id
  // must lie below it.
  static constexpr u32 kMaxComponents = 8;
  static_assert(kMaxComponents < Pte::kNoComponent);

  // Mappings per component, as CountMappings returns them.
  struct Residency {
    std::array<u64, kMaxComponents> base_pages{};
    std::array<u64, kMaxComponents> huge_pages{};
  };

  PageTable() = default;

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Maps [start, start+len) onto `component`. With huge=true, start and len
  // must be 2 MiB aligned and each 2 MiB chunk becomes one huge leaf.
  // Fails with kAlreadyExists, mapping nothing, if any page in the range is
  // already mapped.
  Status MapRange(VirtAddr start, Bytes len, ComponentId component, bool huge);

  // Unmaps every mapping that starts within [start, start+len). Huge
  // mappings must be covered entirely.
  Status UnmapRange(VirtAddr start, Bytes len);

  // Converts the 2 MiB huge mapping covering addr into 512 base-page PTEs
  // (all inheriting the huge page's component and A/D bits).
  Status SplitHuge(VirtAddr addr);

  // Moves the present mapping at addr, whose entry is `pte`, onto
  // `component`. The one way to change a mapped entry's component: it keeps
  // the leaf's residency counts exact.
  void SetComponent(VirtAddr addr, Pte& pte, ComponentId component);

  // Returns the leaf entry covering addr, or nullptr if not mapped.
  // mapping_size (if non-null) receives 4 KiB or 2 MiB. The entry stays
  // valid until its own mapping is unmapped, split or replaced; mapping
  // other ranges never moves it.
  const Pte* Find(VirtAddr addr, Bytes* mapping_size = nullptr) const {
    return FindIn(*this, addr, mapping_size);
  }
  Pte* Find(VirtAddr addr, Bytes* mapping_size = nullptr) {
    return FindIn(*this, addr, mapping_size);
  }

  // MMU behavior for one memory access: sets the accessed bit, and the
  // dirty bit on writes.
  enum class TouchResult {
    kOk,
    kNotPresent,      // page fault: no mapping
    kWriteTrackFault,  // write hit a write-tracked page (software fault)
  };
  TouchResult Touch(VirtAddr addr, bool is_write, Pte** entry_out = nullptr);

  // PTE-scan primitive (§5): reads the accessed bit of the mapping covering
  // addr and clears it. Returns false if unmapped; accessed_out receives the
  // bit value. No TLB flush is modeled, matching the paper.
  bool ScanAccessed(VirtAddr addr, bool* accessed_out);

  // Write-tracking arm for move_memory_regions (§7.2): sets (clears) the
  // reserved write-protect bit on every leaf mapping of [start, start+len).
  // Returns the number of mappings touched. The single TLB flush the paper
  // charges for arming is CostModel::tlb_flush_ns. The next write to an
  // armed page reports TouchResult::kWriteTrackFault from Touch() before
  // the write's payload lands, which is what lets the migration engine fall
  // back to a synchronous copy before the simulated contents change.
  u64 ArmWriteTracking(VirtAddr start, Bytes len);
  u64 DisarmWriteTracking(VirtAddr start, Bytes len);

  // Visits the leaf mappings whose start lies in [start, start+len), in
  // address order, until pred(addr, mapping_size, pte) accepts one, and
  // returns that mapping's address; 0 when pred accepts none. pred is any
  // callable, called in place (a stateful one keeps its state). It may
  // change an entry's flags and payload, and its component through
  // SetComponent; it may not map, unmap or split.
  template <typename Pred>
  VirtAddr FindMapping(VirtAddr start, Bytes len, Pred&& pred) {
    return Walk(*this, start, len, pred);
  }

  // Visits every leaf mapping whose start lies in [start, start+len), in
  // address order: FindMapping with a predicate that accepts none. The same
  // rules hold for fn; the const form hands it a const entry.
  template <typename Fn>
  void ForEachMapping(VirtAddr start, Bytes len, Fn&& fn) {
    Walk(*this, start, len, [&fn](VirtAddr addr, Bytes size, Pte& pte) {
      fn(addr, size, pte);
      return false;
    });
  }
  template <typename Fn>
  void ForEachMapping(VirtAddr start, Bytes len, Fn&& fn) const {
    Walk(*this, start, len, [&fn](VirtAddr addr, Bytes size, const Pte& pte) {
      fn(addr, size, pte);
      return false;
    });
  }

  // The first mapping, in address order, that starts in [start, start+len)
  // and resides on a component in `component_mask`; 0 when there is none.
  // `component` (if non-null) receives its component, or kInvalidComponent.
  // Chunks holding no page on the masked components are skipped whole.
  VirtAddr FindMappingOn(VirtAddr start, Bytes len, u32 component_mask,
                         ComponentId* component = nullptr) const;

  // The component a range resides on, as the policies and the profiler read
  // it: that of the mapping covering `start`, else of the one covering the
  // midpoint (a merged region may start with an unmapped hole), else
  // kInvalidComponent.
  ComponentId RangeComponent(VirtAddr start, Bytes len) const;

  // Counts, per component, the mappings that start in [start, start+len)
  // and reside on a component in `component_mask`. A leaf the range covers
  // whole is read from its counts.
  Residency CountMappings(VirtAddr start, Bytes len, u32 component_mask) const;

  // Recounts every leaf's entries per component and checks them against
  // the kept counts: InternalError naming the first chunk that differs.
  Status AuditResidencyCounts() const;

  Bytes mapped_bytes() const { return mapped_bytes_; }
  u64 mapped_base_pages() const { return mapped_base_pages_; }
  u64 mapped_huge_pages() const { return mapped_huge_pages_; }

 private:
  static constexpr u64 kDirShift = kHugePageShift + 9;  // one directory maps 1 GiB
  static constexpr u64 kChunksPerDir = u64{1} << (kDirShift - kHugePageShift);

  struct Leaf {
    std::array<Pte, kPagesPerHugePage> entries;
    // Present entries per component.
    std::array<u16, kMaxComponents> resident{};

    // The components holding at least one present entry, as a mask.
    u32 ResidentMask() const;
  };
  // One 2 MiB chunk: a present `huge` entry, or base pages in `leaf`. A
  // leaf may linger empty after its base pages are unmapped.
  struct Chunk {
    Pte huge;
    std::unique_ptr<Leaf> leaf;
  };
  struct Directory {
    std::array<Chunk, kChunksPerDir> chunks;
  };

  static u64 ChunkIndex(VirtAddr addr) {
    return addr.Shifted(kHugePageShift) & (kChunksPerDir - 1);
  }
  static u64 PageIndex(VirtAddr addr) {
    return addr.Shifted(kPageShift) & (kPagesPerHugePage - 1);
  }

  // `T`, const when `Table` is: the lookups and walks below are static
  // templates over the table, so the const forms hand out only const
  // entries.
  template <typename Table, typename T>
  using ConstLike = typename std::conditional<std::is_const_v<Table>, const T, T>::type;

  // The directory for addr, created on demand.
  Directory& EnsureDirectory(VirtAddr addr);

  // The chunk covering addr; nullptr if its directory is absent. An address
  // below first_dir_ wraps to a slot past the end.
  template <typename Table>
  static ConstLike<Table, Chunk>* FindChunk(Table& table, VirtAddr addr) {
    const u64 slot = addr.Shifted(kDirShift) - table.first_dir_;
    if (slot >= table.dirs_.size() || table.dirs_[slot] == nullptr) {
      return nullptr;
    }
    return &table.dirs_[slot]->chunks[ChunkIndex(addr)];
  }

  // Find, for either constness of the table.
  template <typename Table>
  static ConstLike<Table, Pte>* FindIn(Table& table, VirtAddr addr, Bytes* mapping_size) {
    ConstLike<Table, Chunk>* chunk = FindChunk(table, addr);
    if (chunk == nullptr) {
      return nullptr;
    }
    if (chunk->huge.present()) {
      if (mapping_size != nullptr) {
        *mapping_size = kHugePageBytes;
      }
      return &chunk->huge;
    }
    if (chunk->leaf == nullptr) {
      return nullptr;
    }
    ConstLike<Table, Pte>& pte = chunk->leaf->entries[PageIndex(addr)];
    if (!pte.present()) {
      return nullptr;
    }
    if (mapping_size != nullptr) {
      *mapping_size = kPageBytes;
    }
    return &pte;
  }

  // Maps [start, end), which lies in one 2 MiB chunk (is the whole chunk
  // when huge); fails with kAlreadyExists, mapping nothing, if any of it is
  // mapped.
  Status MapChunk(VirtAddr start, VirtAddr end, ComponentId component, bool huge);

  // The one chunk walk behind the range queries. Calls
  // visit(chunk_start, chunk, first, last) for each chunk with a mapping
  // starting in [start, start+len), in address order: a huge chunk whose
  // entry starts in the range, or a leaf chunk with the range's pages
  // [first, last) of it. Stops at, and returns, the first nonzero address
  // visit returns; 0 when every visit returns 0.
  template <typename Table, typename VisitChunk>
  static VirtAddr WalkChunks(Table& table, VirtAddr start, Bytes len, VisitChunk&& visit) {
    const VirtAddr end = start + len;
    const u64 start_dir = start.Shifted(kDirShift);
    for (u64 slot = start_dir > table.first_dir_ ? start_dir - table.first_dir_ : 0;
         slot < table.dirs_.size(); ++slot) {
      if (table.dirs_[slot] == nullptr) {
        continue;
      }
      ConstLike<Table, Directory>& dir = *table.dirs_[slot];
      const VirtAddr dir_start((table.first_dir_ + slot) << kDirShift);
      for (u64 c = dir_start < start ? ChunkIndex(start) : 0; c < kChunksPerDir; ++c) {
        const VirtAddr chunk_start = dir_start + c * kHugePageSize;
        if (chunk_start >= end) {
          return VirtAddr{};
        }
        ConstLike<Table, Chunk>& chunk = dir.chunks[c];
        VirtAddr found;
        if (chunk.huge.present()) {
          if (chunk_start < start) {
            continue;
          }
          found = visit(chunk_start, chunk, 0, 0);
        } else if (chunk.leaf != nullptr) {
          // The base pages starting in [start, end).
          const u64 first =
              chunk_start < start ? (PageAlignUp(start) - chunk_start) >> kPageShift : 0;
          const u64 pages_to_end = (end - chunk_start + kPageSize - 1) >> kPageShift;
          const u64 last = std::min<u64>(kPagesPerHugePage, pages_to_end);
          found = visit(chunk_start, chunk, first, last);
        }
        if (!found.IsZero()) {
          return found;
        }
      }
    }
    return VirtAddr{};
  }

  // The leaf walk behind FindMapping and ForEachMapping.
  template <typename Table, typename Visit>
  static VirtAddr Walk(Table& table, VirtAddr start, Bytes len, Visit&& visit) {
    return WalkChunks(table, start, len, [&visit](VirtAddr chunk_start,
                                                  ConstLike<Table, Chunk>& chunk, u64 first,
                                                  u64 last) {
      if (chunk.huge.present()) {
        return visit(chunk_start, kHugePageBytes, chunk.huge) ? chunk_start : VirtAddr{};
      }
      for (u64 p = first; p < last; ++p) {
        ConstLike<Table, Pte>& pte = chunk.leaf->entries[p];
        const VirtAddr page_start = chunk_start + p * kPageSize;
        if (pte.present() && visit(page_start, kPageBytes, pte)) {
          return page_start;
        }
      }
      return VirtAddr{};
    });
  }

  // dirs_[i] is directory first_dir_ + i (addr >> 30), or null while that
  // GiB holds no mapping; heap-owned, so growing the index moves no entry.
  std::vector<std::unique_ptr<Directory>> dirs_;
  u64 first_dir_ = 0;
  Bytes mapped_bytes_;
  u64 mapped_base_pages_ = 0;
  u64 mapped_huge_pages_ = 0;
};

}  // namespace mtm
