/// \file example_args.hpp
/// \brief Positional-argument parsing shared by the example hosts. Each host
/// exits 64 with its usage line when an argument does not parse, 65 on any
/// felis::Error and 66 on an unreadable input file (felis_campaign's codes).
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>

namespace felis::examples {

/// The whole of `s` as a finite real; with `count`, as a positive int.
inline bool parse_number(const std::string& s, bool count, double& out) {
  char* end = nullptr;
  errno = 0;
  out = count ? static_cast<double>(std::strtol(s.c_str(), &end, 10))
              : std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && errno == 0 && std::isfinite(out) &&
         (!count || (out >= 1 && out <= INT_MAX));
}

/// Read argv[1..] into `values`, whose entries hold the defaults; `count[i]`
/// marks a slot that must be a positive integer. False when there are more
/// arguments than slots or one does not parse.
template <int N>
bool parse_args(int argc, char** argv, const bool (&count)[N],
                double (&values)[N]) {
  if (argc - 1 > N) return false;
  for (int i = 1; i < argc; ++i)
    if (!parse_number(argv[i], count[i - 1], values[i - 1])) return false;
  return true;
}

}  // namespace felis::examples
