// Shared utilities: error handling, asserts, string formatting, ids, RNG.
//
// Conventions (see DESIGN.md §7): exceptions signal construction/parse/user
// errors; DESYN_ASSERT guards internal invariants and is active in all build
// types (EDA data-structure corruption must never propagate silently).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace desyn {

/// Library-level error. Thrown for user-visible failures (bad input files,
/// malformed netlists handed to the flow, impossible requests).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// An integer rendered in decimal by std::to_chars, held by value.
struct IntPiece {
  char buf[20];  // INT64_MIN and UINT64_MAX both fit
  uint8_t len;
  std::string_view view() const { return {buf, len}; }
};

/// A single character (char / signed char / unsigned char, which ostream
/// prints as the character, not its code).
struct CharPiece {
  char c;
  std::string_view view() const { return {&c, 1}; }
};

inline std::string_view view_of(std::string_view s) { return s; }
inline std::string_view view_of(const std::string& s) { return s; }
inline std::string_view view_of(const IntPiece& p) { return p.view(); }
inline std::string_view view_of(const CharPiece& p) { return p.view(); }

template <typename T>
inline constexpr bool is_char_v =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

/// One cat() argument as a piece of text: strings by view, integers by
/// std::to_chars, characters and bools exactly as an ostream prints them,
/// everything else (floating point, Id, enums) through an ostringstream.
template <typename T>
auto piece(const T& v) {
  using D = std::decay_t<T>;
  if constexpr (std::is_same_v<D, std::string>) {
    return std::string_view(v);
  } else if constexpr (std::is_same_v<D, std::string_view>) {
    return v;
  } else if constexpr (std::is_array_v<T> &&
                       std::is_same_v<std::remove_cv_t<std::remove_extent_t<T>>,
                                      char>) {
    return std::string_view(v);
  } else if constexpr (std::is_same_v<D, const char*> ||
                       std::is_same_v<D, char*>) {
    return v ? std::string_view(v) : std::string_view();
  } else if constexpr (std::is_same_v<D, bool>) {
    return std::string_view(v ? "1" : "0");
  } else if constexpr (is_char_v<D>) {
    return CharPiece{static_cast<char>(v)};
  } else if constexpr (std::is_integral_v<D>) {
    IntPiece p;
    p.len = static_cast<uint8_t>(
        std::to_chars(p.buf, p.buf + sizeof p.buf, v).ptr - p.buf);
    return p;
  } else {
    std::ostringstream os;
    os << v;
    return std::move(os).str();
  }
}

template <typename... Pieces>
std::string join_pieces(const Pieces&... pieces) {
  std::string out;
  out.reserve((size_t{0} + ... + view_of(pieces).size()));
  (out.append(view_of(pieces)), ...);
  return out;
}

}  // namespace detail

/// Concatenate arbitrary streamable values into a std::string, rendered as
/// one ostream would render them in sequence. The result is allocated once,
/// at its exact length.
/// (gcc 12 has no std::format; this is the project-wide substitute.)
template <typename... Args>
std::string cat(const Args&... args) {
  return detail::join_pieces(detail::piece(args)...);
}

[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);

#define DESYN_ASSERT(expr, ...)                                        \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::desyn::assert_fail(#expr, __FILE__, __LINE__,                  \
                           ::desyn::cat("" __VA_ARGS__));              \
    }                                                                  \
  } while (0)

template <typename... Args>
[[noreturn]] void fail(const Args&... args) {
  throw Error(cat(args...));
}

/// Strongly-typed 32-bit index. Tag is an empty struct unique per id space.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(uint32_t v) : v_(v) {}
  constexpr bool valid() const { return v_ != kInvalid; }
  constexpr uint32_t value() const { return v_; }
  constexpr friend bool operator==(Id a, Id b) { return a.v_ == b.v_; }
  constexpr friend bool operator!=(Id a, Id b) { return a.v_ != b.v_; }
  constexpr friend bool operator<(Id a, Id b) { return a.v_ < b.v_; }
  static constexpr Id invalid() { return Id(); }

 private:
  static constexpr uint32_t kInvalid = std::numeric_limits<uint32_t>::max();
  uint32_t v_ = kInvalid;
};

template <typename Tag>
std::ostream& operator<<(std::ostream& os, Id<Tag> id) {
  if (!id.valid()) return os << "<invalid>";
  return os << id.value();
}

/// Time in picoseconds. All delays/periods in the library use this unit.
using Ps = int64_t;
/// Capacitance in femtofarads.
using Ff = double;
/// Area in square micrometers.
using Um2 = double;

/// splitmix64-based deterministic RNG: reproducible across platforms, good
/// enough for workload generation and property tests.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n). n must be > 0.
  uint64_t below(uint64_t n) {
    DESYN_ASSERT(n > 0);
    return next() % n;
  }
  /// Uniform in [lo, hi] inclusive.
  int64_t range(int64_t lo, int64_t hi) {
    DESYN_ASSERT(lo <= hi);
    return lo + static_cast<int64_t>(below(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool flip(double p = 0.5) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// True if `s` starts with `prefix` (string_view convenience).
inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Split `s` on whitespace into tokens.
std::vector<std::string> split_ws(std::string_view s);

}  // namespace desyn
