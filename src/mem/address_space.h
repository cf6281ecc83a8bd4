// Virtual address space and VMAs for the simulated process.
//
// Workloads carve their data structures (tables, graphs, arrays) out of one
// simulated address space. A VMA carries the THP eligibility flag
// (madvise(MADV_HUGEPAGE)-style, the paper's default configuration).
#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace mtm {

struct Vma {
  VirtAddr start;
  Bytes len;
  Bytes object_len;       // the object's own bytes; len rounds them up
  bool thp = false;       // eligible for transparent 2 MiB mappings
  bool prefault = true;   // touched by application initialization
  std::string name;

  VirtAddr end() const { return start + len; }
  bool Contains(VirtAddr addr) const { return addr >= start && addr < end(); }
};

class AddressSpace {
 public:
  // VMAs start above the typical ELF/brk area; gaps of one huge page are
  // left between VMAs so region formation never bridges two objects by
  // accident of adjacency.
  static constexpr VirtAddr kBase{0x5500'0000'0000ull};

  // Reserves a VMA of `len` bytes (rounded up to a huge-page multiple so the
  // whole object is THP-mappable). Returns its index.
  u32 Allocate(Bytes len, bool thp, std::string name, bool prefault = true) {
    Bytes rounded = HugeAlignUp(len);
    Vma vma;
    vma.start = next_;
    vma.len = rounded;
    vma.object_len = len;
    vma.thp = thp;
    vma.prefault = prefault;
    vma.name = std::move(name);
    next_ += rounded + Bytes(kHugePageSize);  // guard gap
    vmas_.push_back(vma);
    total_bytes_ += rounded;
    return static_cast<u32>(vmas_.size() - 1);
  }

  const std::vector<Vma>& vmas() const { return vmas_; }
  const Vma& vma(u32 index) const { return vmas_[index]; }

  const Vma* FindVma(VirtAddr addr) const {
    for (const Vma& v : vmas_) {
      if (v.Contains(addr)) {
        return &v;
      }
    }
    return nullptr;
  }

  Bytes total_bytes() const { return total_bytes_; }

  // The least a run maps to fault its initialized objects in: every page of
  // a base-page VMA (initialization writes each one), and every page of the
  // object in a THP VMA (a 2 MiB block that fits nowhere falls back to base
  // pages, one per touched page).
  Bytes MinPrefaultBytes() const {
    Bytes total;
    for (const Vma& v : vmas_) {
      if (v.prefault) {
        total += v.thp ? PageAlignUp(v.object_len) : v.len;
      }
    }
    return total;
  }

 private:
  VirtAddr next_ = kBase;
  std::vector<Vma> vmas_;
  Bytes total_bytes_;
};

}  // namespace mtm
