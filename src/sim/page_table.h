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
// shallowest structure that holds them: a sorted vector of heap-owned 1 GiB
// directories, each an array of 512 chunks of 2 MiB. A chunk holds either
// one huge-page entry or a 512-entry leaf of base-page entries. Find indexes
// at most twice after locating the directory, and the range walks
// (FindMapping, ForEachMapping) skip absent directories and leaves whole.
//
// Each leaf also counts its present entries per component. A huge entry
// names its one component already, so together they let the residency
// queries (FindMappingOn, CountMappings) skip a chunk with no page on the
// components asked for, or sum a chunk the range covers whole, without
// reading its 512 entries. Only MapRange, UnmapRange, SplitHuge and
// SetComponent change a component, and each keeps the counts exact.
#pragma once

#include <array>
#include <functional>
#include <memory>
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
  Pte* Find(VirtAddr addr, Bytes* mapping_size = nullptr);
  const Pte* Find(VirtAddr addr, Bytes* mapping_size = nullptr) const;

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
  // returns that mapping's address; 0 when pred accepts none. pred may
  // change an entry's flags and payload, and its component through
  // SetComponent; it may not map, unmap or split.
  VirtAddr FindMapping(VirtAddr start, Bytes len,
                       const std::function<bool(VirtAddr, Bytes, Pte&)>& pred);

  // Visits every leaf mapping whose start lies in [start, start+len), in
  // address order: FindMapping with a predicate that accepts none. The same
  // rules hold for fn.
  void ForEachMapping(VirtAddr start, Bytes len,
                      const std::function<void(VirtAddr, Bytes, Pte&)>& fn);
  void ForEachMapping(VirtAddr start, Bytes len,
                      const std::function<void(VirtAddr, Bytes, const Pte&)>& fn) const;

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
    u64 index = 0;  // addr >> kDirShift
    std::array<Chunk, kChunksPerDir> chunks;
  };

  static u64 ChunkIndex(VirtAddr addr) {
    return addr.Shifted(kHugePageShift) & (kChunksPerDir - 1);
  }
  static u64 PageIndex(VirtAddr addr) {
    return addr.Shifted(kPageShift) & (kPagesPerHugePage - 1);
  }

  // The directory for addr: nullptr if absent (FindDirectory), or created
  // on demand (EnsureDirectory).
  Directory* FindDirectory(VirtAddr addr);
  Directory& EnsureDirectory(VirtAddr addr);

  // The chunk covering addr; nullptr if its directory is absent.
  Chunk* FindChunk(VirtAddr addr);

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
  template <typename VisitChunk>
  VirtAddr WalkChunks(VirtAddr start, Bytes len, const VisitChunk& visit);

  // The leaf walk behind FindMapping and ForEachMapping.
  template <typename Visit>
  VirtAddr Walk(VirtAddr start, Bytes len, const Visit& visit);

  // Sorted by index; heap-owned so inserting a directory moves no entry.
  std::vector<std::unique_ptr<Directory>> dirs_;
  std::size_t last_hit_ = 0;  // dirs_ slot of the last directory found
  Bytes mapped_bytes_;
  u64 mapped_base_pages_ = 0;
  u64 mapped_huge_pages_ = 0;
};

}  // namespace mtm
