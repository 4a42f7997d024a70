// The bench drivers' command line: an unknown flag, or a flag without its
// value, prints the usage line and exits 64 (EX_USAGE), as sde_perfbench
// does, instead of running the default workload under a mistyped flag.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace sde::bench {

[[noreturn]] inline void usageError(const char* usage, const char* arg) {
  std::fprintf(stderr, "bad argument: %s\nusage: %s\n", arg, usage);
  std::exit(64);
}

// The value of flag argv[i], advancing i past it.
inline const char* flagValue(int argc, char** argv, int& i,
                             const char* usage) {
  if (i + 1 >= argc) usageError(usage, argv[i]);
  return argv[++i];
}

inline std::uint64_t flagNumber(int argc, char** argv, int& i,
                                const char* usage) {
  return std::strtoull(flagValue(argc, argv, i, usage), nullptr, 10);
}

}  // namespace sde::bench
