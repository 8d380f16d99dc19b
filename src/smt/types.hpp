// Core SAT-level value types: variables, literals, and the three-valued
// assignment domain. Follows the MiniSat conventions (literal = 2*var + sign)
// so watcher indexing is a plain array lookup.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "support/assert.hpp"

namespace mcsym::smt {

/// Boolean variable, a dense index starting at 0.
using Var = std::uint32_t;
inline constexpr Var kNoVar = 0xffffffffu;

/// Literal: a variable together with a polarity. Encoded as var*2 + sign,
/// sign = 1 for the negated literal, so `lit ^ 1` flips polarity and the
/// encoding doubles as an index into watcher tables.
class Lit {
 public:
  constexpr Lit() = default;

  static constexpr Lit make(Var v, bool negated) {
    return Lit((v << 1) | static_cast<std::uint32_t>(negated));
  }
  static constexpr Lit from_code(std::uint32_t code) { return Lit(code); }

  [[nodiscard]] constexpr Var var() const { return code_ >> 1; }
  [[nodiscard]] constexpr bool negated() const { return (code_ & 1u) != 0; }
  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }
  [[nodiscard]] constexpr bool valid() const { return code_ != 0xffffffffu; }

  constexpr Lit operator~() const { return Lit(code_ ^ 1u); }

  friend constexpr bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend constexpr bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend constexpr bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

  /// DIMACS-style rendering: "7" or "-7" (1-based).
  [[nodiscard]] std::string str() const {
    return std::string(negated() ? "-" : "").append(std::to_string(var() + 1));
  }

 private:
  constexpr explicit Lit(std::uint32_t code) : code_(code) {}
  std::uint32_t code_ = 0xffffffffu;
};

inline constexpr Lit kNoLit{};

/// Three-valued assignment.
enum class LBool : std::uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

/// Value of a literal given the value of its variable.
inline constexpr LBool lit_value(LBool var_value, bool negated) {
  if (var_value == LBool::kUndef) return LBool::kUndef;
  const bool v = (var_value == LBool::kTrue) != negated;
  return v ? LBool::kTrue : LBool::kFalse;
}

}  // namespace mcsym::smt

template <>
struct std::hash<mcsym::smt::Lit> {
  std::size_t operator()(mcsym::smt::Lit l) const noexcept {
    return std::hash<std::uint32_t>{}(l.code());
  }
};
