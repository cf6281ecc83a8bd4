#include "src/profiling/region.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mtm {

namespace {

bool StartsBefore(const Region& r, VirtAddr addr) { return r.start < addr; }

}  // namespace

Region* RegionMap::Cuts::Cut(Region& region, VirtAddr at) {
  if (at <= region.start || at >= region.end) {
    return nullptr;
  }
  MTM_CHECK(rights_.empty() || rights_.back().start < at);
  std::vector<Sample> samples = std::move(region.samples);  // leaves it empty
  Region& right = rights_.emplace_back(region);
  region.samples = std::move(samples);
  right.start = at;
  region.end = at;
  return &right;
}

void RegionMap::SeedRange(VirtAddr start, VirtAddr end, Bytes region_bytes) {
  MTM_CHECK_LT(start, end);
  MTM_CHECK_GT(region_bytes, Bytes{});
  const u64 stride = region_bytes.value();
  std::vector<Region> seeded;
  seeded.reserve((end.value() - 1) / stride - start.value() / stride + 1);
  VirtAddr cursor = start;
  while (cursor < end) {
    VirtAddr next = cursor - cursor.value() % stride + stride;
    if (next > end) {
      next = end;
    }
    Region& r = seeded.emplace_back();
    r.start = cursor;
    r.end = next;
    cursor = next;
  }
  Insert(std::move(seeded));
}

void RegionMap::SeedWhole(VirtAddr start, VirtAddr end) {
  MTM_CHECK_LT(start, end);
  std::vector<Region> seeded(1);
  seeded[0].start = start;
  seeded[0].end = end;
  Insert(std::move(seeded));
}

void RegionMap::Insert(std::vector<Region> seeded) {
  if (regions_.empty()) {
    regions_ = std::move(seeded);
    return;
  }
  auto at = std::lower_bound(regions_.begin(), regions_.end(), seeded.front().start,
                             StartsBefore);
  MTM_CHECK(at == regions_.end() || seeded.back().end <= at->start);
  MTM_CHECK(at == regions_.begin() || std::prev(at)->end <= seeded.front().start);
  regions_.insert(at, std::make_move_iterator(seeded.begin()),
                  std::make_move_iterator(seeded.end()));
}

Region* RegionMap::FindContaining(VirtAddr addr) {
  auto it = std::upper_bound(regions_.begin(), regions_.end(), addr,
                             [](VirtAddr a, const Region& r) { return a < r.start; });
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  return addr < it->end ? &*it : nullptr;
}

Region* RegionMap::Find(VirtAddr start) {
  auto it = std::lower_bound(regions_.begin(), regions_.end(), start, StartsBefore);
  return it != regions_.end() && it->start == start ? &*it : nullptr;
}

void RegionMap::InsertCuts() {
  std::vector<Region>& rights = cuts_.rights_;
  if (rights.empty()) {
    return;
  }
  // Backward merge of two address-ordered runs: every region ahead of the
  // first right half stays where it is.
  std::size_t i = regions_.size();
  std::size_t j = rights.size();
  regions_.resize(i + j);
  std::size_t dst = regions_.size();
  while (j > 0) {
    if (i > 0 && regions_[i - 1].start > rights[j - 1].start) {
      regions_[--dst] = std::move(regions_[--i]);
    } else {
      regions_[--dst] = std::move(rights[--j]);
    }
  }
  rights.clear();
}

VirtAddr RegionMap::SplitPoint(const Region& region) {
  Bytes bytes = region.bytes();
  if (bytes <= kPageBytes) {
    return VirtAddr{};
  }
  VirtAddr mid = region.start + bytes / 2;
  if (bytes > kHugePageBytes) {
    // Round to the nearest huge-page boundary (§5.4). The halves may be
    // slightly unequal; the paper notes the difference is small relative to
    // MB-scale regions.
    VirtAddr down = HugeAlignDown(mid);
    VirtAddr up = HugeAlignUp(mid);
    VirtAddr candidate = (mid - down <= up - mid) ? down : up;
    if (candidate > region.start && candidate < region.end) {
      return candidate;
    }
    // Fall back to whichever huge boundary is interior.
    if (down > region.start) {
      return down;
    }
    if (up < region.end) {
      return up;
    }
  }
  return PageAlignDown(mid) > region.start ? PageAlignDown(mid)
                                         : region.start + kPageBytes;
}

}  // namespace mtm
