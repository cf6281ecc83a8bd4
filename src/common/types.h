// Core integer and address types shared by every mtm module.
//
// The domain quantities — simulated time, byte counts, virtual addresses,
// page/frame numbers, tier ranks — are strong types (see strong_types.h):
// mixing dimensions or swapping identifier kinds is a compile error, not a
// wrong benchmark number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/common/strong_types.h"

namespace mtm {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

// Simulated time in nanoseconds.
class SimNanos : public strong_internal::Quantity<SimNanos, u64> {
  using Quantity::Quantity;
};

// A byte count (capacities, footprints, batch sizes).
class Bytes : public strong_internal::Quantity<Bytes, u64> {
  using Quantity::Quantity;
};

// A simulated virtual address. The simulator models a 48-bit canonical
// address space, matching the four-level/five-level x86-64 layout the paper
// profiles with PTE scans.
//
// An ordinal, not a quantity: two addresses never add, but an address
// offsets by a raw count or a Bytes length, and the difference of two
// addresses is a raw count of bytes. The shift/mask helpers keep address
// bit arithmetic on the type so call sites never unwrap just to align.
class VirtAddr : public strong_internal::Ordinal<VirtAddr, u64> {
 public:
  using Ordinal::Ordinal;

  constexpr bool IsZero() const { return value() == 0; }

  // Alignment helpers; `alignment` must be a power of two.
  constexpr VirtAddr AlignDown(u64 alignment) const {
    return VirtAddr(value() & ~(alignment - 1));
  }
  constexpr VirtAddr AlignUp(u64 alignment) const {
    return VirtAddr((value() + alignment - 1) & ~(alignment - 1));
  }
  constexpr bool IsAligned(u64 alignment) const { return (value() & (alignment - 1)) == 0; }
  // Offset of this address within its enclosing `alignment`-sized block.
  constexpr u64 OffsetIn(u64 alignment) const { return value() & (alignment - 1); }
  // This address shifted right by `shift`: its page number at kPageShift,
  // a page-table index once masked.
  constexpr u64 Shifted(u64 shift) const { return value() >> shift; }

  // An address offset by a byte length is an address.
  friend constexpr VirtAddr operator+(VirtAddr a, Bytes len) {
    return VirtAddr(a.value() + len.value());
  }
  friend constexpr VirtAddr operator-(VirtAddr a, Bytes len) {
    return VirtAddr(a.value() - len.value());
  }
  friend constexpr VirtAddr& operator+=(VirtAddr& a, Bytes len) {
    a = a + len;
    return a;
  }
};

// A virtual page number: VirtAddr >> kPageShift.
class Vpn : public strong_internal::Ordinal<Vpn, u64> {
  using Ordinal::Ordinal;
};

// A physical frame number within a memory component. Deliberately a
// different type from Vpn: translating between the two goes through the
// page table, never through an implicit conversion.
class Pfn : public strong_internal::Ordinal<Pfn, u64> {
  using Ordinal::Ordinal;
};

// Socket-relative tier rank: 0 is the fastest tier as seen from a socket
// (the paper's "tier 1"). Distinct from ComponentId — the same component
// has different tier ranks from different sockets (§6.2 multi-view).
class TierId : public strong_internal::Ordinal<TierId, u32> {
  using Ordinal::Ordinal;
};

// Index of a memory component within a Machine (a physical device: the DRAM
// on socket 0, the PM on socket 1, ...). An ordinal, not a quantity — and a
// different kind of id from TierId, because the same component has different
// tier ranks from different sockets (§6.2 multi-view). Dense per-component
// tables index by it through IdMap<ComponentId, T>.
class ComponentId : public strong_internal::Ordinal<ComponentId, u32> {
  using Ordinal::Ordinal;
};

inline constexpr ComponentId kInvalidComponent{~u32{0}};

// One application access: the address, the issuing thread and its kind.
// Workloads produce streams of these; the access engine replays them.
struct MemAccess {
  VirtAddr addr;
  u32 thread = 0;
  bool is_write = false;
};

inline constexpr u64 kPageShift = 12;
inline constexpr u64 kPageSize = u64{1} << kPageShift;  // 4 KiB base page.
inline constexpr u64 kHugePageShift = 21;
inline constexpr u64 kHugePageSize = u64{1} << kHugePageShift;  // 2 MiB huge page.
inline constexpr u64 kPagesPerHugePage = kHugePageSize / kPageSize;  // 512.

// Byte-typed views of the page sizes, for capacity/length arithmetic.
inline constexpr Bytes kPageBytes{kPageSize};
inline constexpr Bytes kHugePageBytes{kHugePageSize};

inline constexpr Vpn VpnOf(VirtAddr addr) { return Vpn(addr.Shifted(kPageShift)); }
inline constexpr VirtAddr AddrOfVpn(Vpn vpn) { return VirtAddr(vpn.value() << kPageShift); }
inline constexpr VirtAddr PageAlignDown(VirtAddr addr) { return addr.AlignDown(kPageSize); }
inline constexpr VirtAddr PageAlignUp(VirtAddr addr) { return addr.AlignUp(kPageSize); }
inline constexpr VirtAddr HugeAlignDown(VirtAddr addr) { return addr.AlignDown(kHugePageSize); }
inline constexpr VirtAddr HugeAlignUp(VirtAddr addr) { return addr.AlignUp(kHugePageSize); }
inline constexpr bool IsHugeAligned(VirtAddr addr) { return addr.IsAligned(kHugePageSize); }
inline constexpr bool IsPageAligned(VirtAddr addr) { return addr.IsAligned(kPageSize); }

// Length-rounding twins of the address alignment helpers.
inline constexpr Bytes PageAlignUp(Bytes len) {
  return Bytes((len.value() + kPageSize - 1) & ~(kPageSize - 1));
}
inline constexpr Bytes HugeAlignUp(Bytes len) {
  return Bytes((len.value() + kHugePageSize - 1) & ~(kHugePageSize - 1));
}
inline constexpr Bytes PageAlignDown(Bytes len) { return Bytes(len.value() & ~(kPageSize - 1)); }
inline constexpr Bytes HugeAlignDown(Bytes len) {
  return Bytes(len.value() & ~(kHugePageSize - 1));
}

// Page-count conversions; lengths in bytes round up, so a partial page
// still occupies a whole frame.
inline constexpr u64 NumPages(Bytes len) { return (len + kPageBytes - Bytes(1)) / kPageBytes; }
inline constexpr u64 NumHugePages(Bytes len) {
  return (len + kHugePageBytes - Bytes(1)) / kHugePageBytes;
}
inline constexpr Bytes PagesToBytes(u64 pages) { return Bytes(pages << kPageShift); }
inline constexpr Bytes HugePagesToBytes(u64 pages) { return Bytes(pages << kHugePageShift); }

}  // namespace mtm

template <>
struct std::hash<mtm::VirtAddr> : mtm::strong_internal::StrongHash<mtm::VirtAddr> {};
template <>
struct std::hash<mtm::Vpn> : mtm::strong_internal::StrongHash<mtm::Vpn> {};
template <>
struct std::hash<mtm::Pfn> : mtm::strong_internal::StrongHash<mtm::Pfn> {};
template <>
struct std::hash<mtm::TierId> : mtm::strong_internal::StrongHash<mtm::TierId> {};
template <>
struct std::hash<mtm::ComponentId> : mtm::strong_internal::StrongHash<mtm::ComponentId> {};
template <>
struct std::hash<mtm::SimNanos> : mtm::strong_internal::StrongHash<mtm::SimNanos> {};
template <>
struct std::hash<mtm::Bytes> : mtm::strong_internal::StrongHash<mtm::Bytes> {};
