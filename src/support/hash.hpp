// Incremental FNV-1a state hashing: one 64-bit lane (Fnv64) and the
// 128-bit two-lane StateHasher.
//
// The explicit-state checker and the precise match-pair DFS both memoize
// visited states keyed by a hash of a canonical serialization. A 64-bit key
// reaches birthday-collision territory around a few hundred million states —
// and a collision here silently drops reachable behaviors, which the
// cross-validation suite would surface as a baffling one-seed failure. Two
// independent 64-bit FNV-1a lanes (distinct offset bases and a lane-2 input
// twist) push that risk out of reach for any enumeration that fits in RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mcsym::support {

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  Hash128& operator^=(const Hash128& o) { return *this = {lo ^ o.lo, hi ^ o.hi}; }
  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// One 64-bit FNV-1a lane over the eight little-endian bytes of each word.
/// `Twist` is added to every byte before it is folded in; a second lane
/// with another basis and a twist stays independent of the first.
template <std::uint64_t Basis, std::uint8_t Twist = 0>
class FnvLane {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ = (h_ ^ (((v >> (byte * 8)) & 0xffu) + Twist)) * 0x100000001b3ULL;
    }
  }
  /// XORs `v` into the lane: the order-insensitive combination below.
  void mix_unordered(std::uint64_t v) { h_ ^= v; }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = Basis;
};

/// Plain 64-bit FNV-1a (System::fingerprint()).
using Fnv64 = FnvLane<0xcbf29ce484222325ULL>;

class StateHasher {
 public:
  void mix(std::uint64_t v) {
    lo_.mix(v);
    hi_.mix(v);
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }

  /// Order-insensitive combination of a sub-hash (e.g. per-channel digests
  /// whose container order is insertion-dependent).
  void mix_unordered(const Hash128& h) {
    lo_.mix_unordered(h.lo);
    hi_.mix_unordered(h.hi);
  }

  [[nodiscard]] Hash128 digest() const { return {lo_.digest(), hi_.digest()}; }

 private:
  Fnv64 lo_;
  FnvLane<0x84222325cbf29ce4ULL, 0x9e> hi_;
};

}  // namespace mcsym::support

template <>
struct std::hash<mcsym::support::Hash128> {
  std::size_t operator()(const mcsym::support::Hash128& h) const noexcept {
    return h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL);
  }
};
