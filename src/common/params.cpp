#include "common/params.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace felis {

namespace {
std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r\n");
  auto end = s.find_last_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  return s.substr(begin, end - begin + 1);
}

/// "[min, max]"; a bound at kPositive or at the largest real reads "(0" or "inf)".
std::string range_of(const ParamDecl& d) {
  std::ostringstream os;
  os.precision(10);
  if (d.min == kPositive) os << "(0, ";
  else os << "[" << d.min << ", ";
  if (d.max == std::numeric_limits<double>::max()) os << "inf)";
  else os << d.max << "]";
  return os.str();
}
}  // namespace

ParamMap ParamMap::parse(const std::string& text) {
  ParamMap params;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    // ';' separates statements within a line, so one-line configs
    // ("mode=corrupt; at=2") parse the same as multi-line files.
    std::istringstream statements(line);
    std::string stmt;
    while (std::getline(statements, stmt, ';')) {
      stmt = trim(stmt);
      if (stmt.empty()) continue;
      const auto eq = stmt.find('=');
      FELIS_CHECK_MSG(eq != std::string::npos,
                      "ParamMap::parse: missing '=' on line " << lineno);
      const std::string key = trim(stmt.substr(0, eq));
      const std::string value = trim(stmt.substr(eq + 1));
      FELIS_CHECK_MSG(!key.empty(),
                      "ParamMap::parse: empty key on line " << lineno);
      params.set(key, value);
    }
  }
  return params;
}

void ParamMap::set(const std::string& key, const std::string& value) {
  map_[key] = value;
}
void ParamMap::set(const std::string& key, real_t value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  map_[key] = os.str();
}
void ParamMap::set(const std::string& key, int value) {
  map_[key] = std::to_string(value);
}
void ParamMap::set(const std::string& key, bool value) {
  map_[key] = value ? "true" : "false";
}

bool ParamMap::has(const std::string& key) const { return map_.count(key) > 0; }

std::string ParamMap::get_string(const std::string& key, const std::string& def) const {
  const auto it = map_.find(key);
  return it != map_.end() ? it->second : def;
}

template <class T>
T parse_value(const std::string& key, std::string text) {
  if constexpr (std::is_same_v<T, bool>) {
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
    if (text == "false" || text == "0" || text == "no" || text == "off") return false;
    throw Error("parameter '" + key + "' is not a boolean: " + text);
  } else {
    usize pos = 0;
    T v{};
    try {
      if constexpr (std::is_same_v<T, int>) v = std::stoi(text, &pos);
      else v = std::stod(text, &pos);
    } catch (const std::out_of_range&) {
      throw Error("parameter '" + key + "' is out of range: " + text);
    } catch (const std::invalid_argument&) {
    }
    if (pos == 0 || pos != text.size())
      throw Error("parameter '" + key + "' is not " +
                  (std::is_same_v<T, int> ? "an integer: " : "a real number: ") + text);
    return v;
  }
}
template int parse_value<int>(const std::string&, std::string);
template real_t parse_value<real_t>(const std::string&, std::string);
template bool parse_value<bool>(const std::string&, std::string);

void ParamDecl::check(const std::string& text) const {
  if (type == ParamType::kRemoved)
    throw Error(std::string("parameter '") + name + "' was removed: " + doc);
  if (type == ParamType::kBool) parse_value<bool>(name, text);
  if (type != ParamType::kInt && type != ParamType::kReal) return;
  const double v = type == ParamType::kInt ? parse_value<int>(name, text)
                                           : parse_value<real_t>(name, text);
  if (v >= min && v <= max) return;  // NaN fails here too
  throw Error(std::string("parameter '") + name + "' = " + text +
              " is outside its range " + range_of(*this));
}

const ParamDecl& find_param(const std::string& key, std::span<const ParamList> lists) {
  std::vector<const ParamDecl*> decls;
  for (const ParamList list : lists) decls.insert(decls.end(), list.begin(), list.end());
  for (const ParamDecl* d : decls) {
    const std::string_view name = d->name, stem = name.substr(0, name.size() - 1);
    if (key == name ||
        (name.ends_with(".*") && key.size() > stem.size() && key.starts_with(stem)))
      return *d;
  }
  std::string nearest;
  usize best = 3;  // suggest nothing further than edit distance 2
  for (const ParamDecl* d : decls) {
    const std::string_view name = d->name;
    std::vector<usize> row(name.size() + 1);  // Levenshtein, one row at a time
    for (usize j = 0; j <= name.size(); ++j) row[j] = j;
    for (usize i = 1; i <= key.size(); ++i) {
      usize diag = std::exchange(row[0], i);
      for (usize j = 1; j <= name.size(); ++j)
        diag = std::exchange(row[j], std::min({row[j] + 1, row[j - 1] + 1,
                                               diag + (key[i - 1] != name[j - 1])}));
    }
    if (d->type != ParamType::kRemoved && row.back() < best)
      best = row.back(), nearest = name;
  }
  throw Error("undeclared key '" + key + "'" +
              (nearest.empty() ? "" : " (did you mean '" + nearest + "'?)"));
}

void check_params(const ParamMap& params, std::span<const ParamList> lists) {
  for (const auto& [key, value] : params.entries()) find_param(key, lists).check(value);
}

ParamMap CommandLine::parse(int argc, const char* const* argv) const try {
  ParamMap args;
  const auto take = [&args](const ParamDecl& d, const std::string& value) {
    d.check(value);
    args.set(d.name, value);
  };
  const auto unknown = [this](const std::string& arg) {
    std::string valid;
    for (const ParamDecl* d : positionals) valid += ", <" + std::string(d->name) + ">";
    for (const ParamDecl* d : options) valid += ", " + std::string(d->name);
    return Error("unknown argument '" + arg + "' (valid: " + valid.substr(2) + ")");
  };
  std::vector<std::string> loose;  // the positional arguments, in order
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto option = std::find_if(options.begin(), options.end(),
                                     [&](const ParamDecl* d) { return arg == d->name; });
    if (arg.empty() || arg[0] != '-') loose.push_back(arg);
    else if (option == options.end()) throw unknown(arg);
    else if ((*option)->type == ParamType::kBool) take(**option, "true");
    else if (i + 1 < argc) take(**option, argv[++i]);
    else throw Error("option '" + arg + "' needs a value");
  }
  usize slot = replaces_first != nullptr && args.has(replaces_first->name) ? 1 : 0;
  for (const std::string& arg : loose) {
    if (slot >= positionals.size()) throw unknown(arg);
    take(*positionals[slot++], arg);
  }
  return args;
} catch (const Error& e) {
  throw UsageError(e.what());
}

std::string CommandLine::usage() const {
  std::ostringstream os;
  os << "usage: " << program;
  for (const ParamDecl* d : positionals) os << " [" << d->name << "]";
  os << (options.empty() ? "\n" : " [options]\n");
  for (const auto* list : {&positionals, &options})
    for (const ParamDecl* d : *list) {
      const bool valued = list == &options && d->type != ParamType::kBool;
      os << "  " << std::left << std::setw(26)
         << d->name + std::string(valued ? " <value>" : "") << d->doc;
      if (d->type == ParamType::kInt || d->type == ParamType::kReal)
        os << " " << range_of(*d);
      os << "\n";
    }
  return os.str();
}

int CommandLine::main(int argc, const char* const* argv,
                      const std::function<int(const ParamMap&)>& run,
                      std::string& message) const {
  try {
    return run(parse(argc, argv));
  } catch (const UsageError& e) {
    message = std::string(e.what()) + "\n" + usage();
    return 64;
  } catch (const Error& e) {
    message = std::string(program) + ": " + e.what() + "\n";
    return 65;
  }
}

}  // namespace felis
