// Positional-argument parsing shared by the example programs. Every
// argument is optional and must be a positive decimal integer written as
// the whole argument, no larger than its maximum; anything else — a sign,
// a suffix, zero, an out-of-range value or a surplus argument — prints the
// usage line and exits with status 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <vector>

namespace axipack::examples {

struct PositionalArg {
  std::uint32_t fallback;  ///< value when the argument is omitted
  std::uint32_t max;       ///< largest accepted value
};

/// Parses argv[1..] against `args`, in order; `usage` is the synopsis
/// printed on a bad argument (e.g. "spmv_demo [rows] [avg_nnz_per_row]").
inline std::vector<std::uint32_t> parse_args(
    int argc, char** argv, const char* usage,
    std::initializer_list<PositionalArg> args) {
  const auto fail = [&](const char* why, const char* arg) {
    std::fprintf(stderr, "%s: %s \"%s\"\nusage: %s\n", argv[0], why, arg,
                 usage);
    std::exit(2);
  };
  if (argc - 1 > static_cast<int>(args.size())) {
    fail("unexpected argument", argv[args.size() + 1]);
  }
  std::vector<std::uint32_t> values;
  int i = 1;
  for (const PositionalArg& spec : args) {
    if (i >= argc) {
      values.push_back(spec.fallback);
      continue;
    }
    const char* arg = argv[i++];
    std::uint64_t v = 0;
    const char* p = arg;
    for (; *p >= '0' && *p <= '9' && v <= spec.max; ++p) {
      v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    if (p == arg || *p != '\0' || v == 0 || v > spec.max) {
      char why[64];
      std::snprintf(why, sizeof why, "want an integer in [1, %u], got",
                    static_cast<unsigned>(spec.max));
      fail(why, arg);
    }
    values.push_back(static_cast<std::uint32_t>(v));
  }
  return values;
}

}  // namespace axipack::examples
