#include "sched/sweep.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace felis::sched {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  const auto end = s.find_last_not_of(" \t");
  if (begin == std::string::npos) return "";
  return s.substr(begin, end - begin + 1);
}

/// Shortest %g form — sweep values land in directory names and summary
/// tables, where 17 significant digits would be noise.
std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string sanitize_for_id(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                    c == '+' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string leaf_of(const std::string& key) {
  const auto dot = key.rfind('.');
  return dot == std::string::npos ? key : key.substr(dot + 1);
}

}  // namespace

std::string sweep_target_key(const std::string& sweep_key) {
  constexpr const char* kPrefix = "sweep.";
  FELIS_CHECK_MSG(sweep_key.rfind(kPrefix, 0) == 0,
                  "'" << sweep_key << "' is not a sweep.* key");
  const std::string rest = sweep_key.substr(6);
  FELIS_CHECK_MSG(!rest.empty(), "sweep key '" << sweep_key
                                               << "': empty parameter name");
  return rest.find('.') == std::string::npos ? "case." + rest : rest;
}

std::vector<std::string> expand_sweep_values(const std::string& key,
                                             const std::string& spec) {
  const std::string text = trim(spec);
  FELIS_CHECK_MSG(!text.empty(), "sweep key '" << key << "': empty spec");

  // Range form `a:b:logN` / `a:b:linN`.
  if (text.find(':') != std::string::npos) {
    std::vector<std::string> parts;
    std::istringstream is(text);
    std::string part;
    while (std::getline(is, part, ':')) parts.push_back(trim(part));
    FELIS_CHECK_MSG(parts.size() == 3, "sweep key '"
                                           << key << "': range must be "
                                           << "'first:last:logN' or "
                                           << "'first:last:linN', got '" << text
                                           << "'");
    const double a = parse_value<real_t>(key, parts[0]);
    const double b = parse_value<real_t>(key, parts[1]);
    const std::string& mode = parts[2];
    const bool log_spaced = mode.rfind("log", 0) == 0;
    const bool lin_spaced = mode.rfind("lin", 0) == 0;
    FELIS_CHECK_MSG(log_spaced || lin_spaced,
                    "sweep key '" << key << "': spacing must be logN or linN, "
                                  << "got '" << mode << "'");
    const int n = parse_value<int>(key, mode.substr(3));
    FELIS_CHECK_MSG(n >= 2 && n <= 10000,
                    "sweep key '" << key << "': point count " << n
                                  << " outside [2, 10000]");
    if (log_spaced)
      FELIS_CHECK_MSG(a > 0 && b > 0, "sweep key '"
                                          << key
                                          << "': log range needs positive "
                                          << "endpoints, got " << a << ":" << b);
    std::vector<std::string> values;
    values.reserve(static_cast<usize>(n));
    for (int i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(n - 1);
      const double v = log_spaced
                           ? std::exp(std::log(a) + t * (std::log(b) - std::log(a)))
                           : a + t * (b - a);
      values.push_back(format_value(v));
    }
    return values;
  }

  // Comma-list form (numbers or strings, e.g. `serial,openmp`).
  std::vector<std::string> values;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    item = trim(item);
    FELIS_CHECK_MSG(!item.empty(),
                    "sweep key '" << key << "': empty list element in '" << text
                                  << "'");
    values.push_back(item);
  }
  FELIS_CHECK_MSG(!values.empty(), "sweep key '" << key << "': empty list");
  return values;
}

std::vector<CaseSpec> expand_campaign_cases(const ParamMap& campaign) {
  // Collect the axes in sorted-key order (std::map iteration), so case
  // numbering is stable across parses of the same campaign file.
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  for (const auto& [key, value] : campaign.entries()) {
    if (key.rfind("sweep.", 0) != 0) continue;
    axes.emplace_back(sweep_target_key(key), expand_sweep_values(key, value));
  }

  usize total = 1;
  for (const auto& [key, values] : axes) {
    FELIS_CHECK_MSG(total * values.size() <= 100000,
                    "campaign expands to more than 100000 cases");
    total *= values.size();
  }

  ParamMap base;
  for (const auto& [key, value] : campaign.entries())
    if (key.rfind("sweep.", 0) != 0) base.set(key, value);

  std::vector<CaseSpec> cases;
  cases.reserve(total);
  for (usize index = 0; index < total; ++index) {
    CaseSpec spec;
    spec.params = base;
    // Row-major: the first (sorted) axis varies slowest.
    usize stride = total;
    for (const auto& [key, values] : axes) {
      stride /= values.size();
      const std::string& value = values[(index / stride) % values.size()];
      spec.params.set(key, value);
      spec.overrides[key] = value;
    }
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "case%04zu",
                  static_cast<size_t>(index));
    spec.id = prefix;
    for (const auto& [key, value] : spec.overrides) {
      spec.id += '-';
      spec.id += sanitize_for_id(leaf_of(key));
      spec.id += sanitize_for_id(value);
    }
    cases.push_back(std::move(spec));
  }
  return cases;
}

}  // namespace felis::sched
