#include "src/migration/async_copy.h"

namespace mtm {
namespace {

// splitmix64 step: the per-line expansion of a page payload.
constexpr u64 MixLine(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr u64 kCacheLineBytes = 64;

}  // namespace

u64 CopyPageContent(const PageCopyRecord& page) {
  // Expand the payload word into the page's cache lines and fold them: the
  // memcpy stand-in, so the copy does work proportional to the bytes it
  // moves and the checksum depends on every line.
  u64 stream = page.payload ^ page.addr.value() ^
               (static_cast<u64>(page.src.value()) << 56);
  u64 checksum = kCopyChecksumSeed;
  const u64 lines = page.size.value() / kCacheLineBytes;
  for (u64 line = 0; line < lines; ++line) {
    checksum = FoldCopyChecksum(checksum, MixLine(stream + line));
  }
  return checksum;
}

std::vector<CopyShard> PlanCopyShards(const std::vector<PageCopyRecord>& pages,
                                      Bytes target_shard_bytes) {
  std::vector<CopyShard> shards;
  if (pages.empty()) {
    return shards;
  }
  const Bytes target =
      target_shard_bytes.IsZero() ? kHugePageBytes : target_shard_bytes;
  CopyShard current{0, 0, Bytes{}};
  for (std::size_t i = 0; i < pages.size(); ++i) {
    // Clean break: a shard may end only where the next record starts a new
    // 2 MiB huge frame, so one huge page's base-page remnants never split.
    const bool new_huge_frame =
        i > 0 && HugeAlignDown(pages[i].addr) != HugeAlignDown(pages[i - 1].addr);
    if (current.count > 0 && current.bytes >= target && new_huge_frame) {
      shards.push_back(current);
      current = CopyShard{i, 0, Bytes{}};
    }
    ++current.count;
    current.bytes += pages[i].size;
  }
  shards.push_back(current);
  return shards;
}

RegionCopyResult CopyRegion(const std::vector<PageCopyRecord>& pages) {
  const std::vector<CopyShard> shards = PlanCopyShards(pages, Bytes{});
  RegionCopyResult out;
  out.checksum = kCopyChecksumSeed;
  for (const CopyShard& shard : shards) {
    u64 piece = kCopyChecksumSeed;
    for (std::size_t i = 0; i < shard.count; ++i) {
      piece = FoldCopyChecksum(piece, CopyPageContent(pages[shard.first + i]));
    }
    out.checksum = FoldCopyChecksum(out.checksum, piece);
    out.bytes += shard.bytes;
  }
  out.shards = shards.size();
  return out;
}

}  // namespace mtm
