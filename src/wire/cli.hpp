/// @file
/// Command-line flag parsing shared by campaign_runner and
/// campaign_serverd. Numeric values go through the strict decimal
/// reader of wire/lexer.hpp: a sign, a blank, garbage or an out-of-range
/// value prints one message and exits 1, never a silent zero or wrap.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "wire/lexer.hpp"

namespace hs::wire {

/// Matches "--name=value" or "--name value"; advances *i past a consumed
/// extra argument. Returns nullptr when `arg` is not this flag. The
/// space-separated form refuses a value starting with '-' so a forgotten
/// value ("--seed --trials=5") fails as an unknown flag instead of
/// silently swallowing the next option.
inline const char* flag_value(const char* arg, const char* name, int argc,
                              char** argv, int* i) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc && argv[*i + 1][0] != '-') {
    return argv[++*i];
  }
  return nullptr;
}

inline std::uint64_t flag_u64(const char* value, const char* flag) {
  const auto v = parse_u64(value);
  if (!v) {
    std::fprintf(stderr, "invalid numeric value '%s' for %s\n", value, flag);
    std::exit(1);
  }
  return *v;
}

/// flag_u64 bounded to `unsigned` (--threads, --workers).
inline unsigned flag_u32(const char* value, const char* flag) {
  const std::uint64_t v = flag_u64(value, flag);
  if (v > std::numeric_limits<unsigned>::max()) {
    std::fprintf(stderr, "value '%s' out of range for %s\n", value, flag);
    std::exit(1);
  }
  return static_cast<unsigned>(v);
}

}  // namespace hs::wire
