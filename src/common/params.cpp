#include "common/params.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace felis {

namespace {
std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r\n");
  auto end = s.find_last_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  return s.substr(begin, end - begin + 1);
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

std::optional<std::string> ParamMap::lookup(const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::string ParamMap::get_string(const std::string& key) const {
  const auto v = lookup(key);
  FELIS_CHECK_MSG(v.has_value(), "missing parameter '" << key << "'");
  return *v;
}

real_t ParamMap::get_real(const std::string& key) const {
  const std::string s = get_string(key);
  try {
    usize pos = 0;
    const real_t v = std::stod(s, &pos);
    FELIS_CHECK_MSG(pos == s.size(), "trailing junk in real parameter '" << key << "'");
    return v;
  } catch (const std::invalid_argument&) {
    throw Error("parameter '" + key + "' is not a real number: " + s);
  } catch (const std::out_of_range&) {
    throw Error("parameter '" + key + "' is out of range: " + s);
  }
}

int ParamMap::get_int(const std::string& key) const {
  const std::string s = get_string(key);
  try {
    usize pos = 0;
    const int v = std::stoi(s, &pos);
    FELIS_CHECK_MSG(pos == s.size(), "trailing junk in int parameter '" << key << "'");
    return v;
  } catch (const std::invalid_argument&) {
    throw Error("parameter '" + key + "' is not an integer: " + s);
  } catch (const std::out_of_range&) {
    throw Error("parameter '" + key + "' is out of range: " + s);
  }
}

bool ParamMap::get_bool(const std::string& key) const {
  std::string s = get_string(key);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw Error("parameter '" + key + "' is not a boolean: " + s);
}

std::string ParamMap::get_string(const std::string& key, const std::string& def) const {
  return has(key) ? get_string(key) : def;
}
real_t ParamMap::get_real(const std::string& key, real_t def) const {
  return has(key) ? get_real(key) : def;
}
int ParamMap::get_int(const std::string& key, int def) const {
  return has(key) ? get_int(key) : def;
}
bool ParamMap::get_bool(const std::string& key, bool def) const {
  return has(key) ? get_bool(key) : def;
}

}  // namespace felis
