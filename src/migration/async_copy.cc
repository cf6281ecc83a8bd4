#include "src/migration/async_copy.h"

namespace mtm {
namespace {

// splitmix64 finalizer: a bijection on 64-bit words.
constexpr u64 Mix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

u64 CopyPageContent(const PageCopyRecord& page) {
  // The key names the page losslessly: the address is page-aligned and below
  // 2^48, so the size in base pages (1 or 512) fills its zero low 12 bits and
  // the source component its top byte. Folding the size into the address
  // bits instead would alias the neighbouring page.
  const u64 key = page.addr.value() | (page.size.value() >> kPageShift) |
                  (static_cast<u64>(page.src.value()) << 56);
  return Mix(page.payload ^ key);
}

RegionCopyResult CopyRegion(const std::vector<PageCopyRecord>& pages) {
  RegionCopyResult out{kCopyChecksumSeed, Bytes{}};
  for (const PageCopyRecord& page : pages) {
    out.checksum = FoldCopyChecksum(out.checksum, CopyPageContent(page));
    out.bytes += page.size;
  }
  return out;
}

}  // namespace mtm
