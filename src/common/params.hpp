/// \file params.hpp
/// \brief Flat key–value parameter map (a deliberately small stand-in for
/// Neko's JSON case files), the declarations every input is read through, and
/// the hosts' one command-line parser.
///
/// Keys are dotted paths (`case.Ra`); values are stored as strings. Parsing
/// accepts `key = value` statements separated by newlines or ';' (so one-line
/// configs like FELIS_FAULT_INJECT parse too) with `#` comments. The map takes
/// any key; an entry point checks a file against its declarations.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace felis {

class ParamMap {
 public:
  ParamMap() = default;

  /// Parse `key = value` statements separated by newlines or ';'; '#' starts
  /// a comment (to end of line); blank statements ignored.
  static ParamMap parse(const std::string& text);

  void set(const std::string& key, const std::string& value);
  /// String-literal overload: without it, `set(key, "rbc")` would silently
  /// pick the bool overload (pointer → bool beats pointer → std::string).
  void set(const std::string& key, const char* value) {
    set(key, std::string(value));
  }
  void set(const std::string& key, real_t value);
  void set(const std::string& key, int value);
  void set(const std::string& key, bool value);

  bool has(const std::string& key) const;

  /// The value as written, `def` when the key is absent. A typed value is
  /// read through its declaration (Param::get).
  std::string get_string(const std::string& key, const std::string& def) const;

  const std::map<std::string, std::string>& entries() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

/// `text` as a T (int, real_t or bool); throws felis::Error naming `key`.
template <class T>
T parse_value(const std::string& key, std::string text);

/// What an input holds; a kRemoved key is refused with its doc.
enum class ParamType { kString, kReal, kInt, kBool, kRemoved };

/// The least positive real: the lower bound of an input that must be > 0.
inline constexpr double kPositive = std::numeric_limits<double>::min();

/// The one declaration of an input a user writes: a case or campaign file key,
/// a command-line option ("--steps") or positional ("steps"). A numeric value
/// lies in [min, max]; a name ending in ".*" declares every key below it.
struct ParamDecl {
  const char* name;
  ParamType type;
  double min, max;
  const char* doc;

  /// Throws felis::Error naming this input unless `text` is a valid value.
  void check(const std::string& text) const;
};

/// A declaration of a T (real_t, int, bool or std::string), read through get.
/// A numeric range without a max reaches T's largest value.
template <class T>
struct Param : ParamDecl {
  static constexpr ParamType kType = std::is_same_v<T, real_t> ? ParamType::kReal
                                     : std::is_same_v<T, int>  ? ParamType::kInt
                                     : std::is_same_v<T, bool> ? ParamType::kBool
                                                               : ParamType::kString;
  static constexpr double kMax = std::is_same_v<T, int>
                                     ? std::numeric_limits<int>::max()
                                     : std::numeric_limits<double>::max();
  constexpr Param(const char* name, double min, double max, const char* doc)
      : ParamDecl{name, kType, min, max, doc} {}
  constexpr Param(const char* name, double min, const char* doc)
      : Param(name, min, kMax, doc) {}
  constexpr Param(const char* name, const char* doc) : Param(name, 0, 0, doc) {}

  /// The checked value `params` holds, `def` when it holds none.
  T get(const ParamMap& params, T def) const {
    if (!params.has(name)) return def;
    const std::string text = params.get_string(name, "");
    check(text);
    if constexpr (std::is_same_v<T, std::string>) return text;
    else return parse_value<T>(name, text);
  }
  bool in(const ParamMap& params) const { return params.has(name); }
};

/// One reader's declarations; an entry point checks a file against several.
using ParamList = std::span<const ParamDecl* const>;

/// The declaration in `lists` covering `key`; an undeclared key throws
/// felis::Error naming it and the nearest declared name within edit distance 2.
const ParamDecl& find_param(const std::string& key, std::span<const ParamList> lists);

/// find_param(key).check(value) for every entry of `params`.
void check_params(const ParamMap& params, std::span<const ParamList> lists);

/// A command line that does not parse against its declarations.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// The hosts' one command-line parser, in the manner of argparse. It prints
/// nothing: the host prints what main() or usage() returns.
struct CommandLine {
  const char* program;
  /// "--name" inputs: a bool one is a flag, any other takes the next argument.
  std::vector<const ParamDecl*> options;
  std::vector<const ParamDecl*> positionals;  ///< each optional, in order
  /// An option that, when given, takes the first positional's place
  /// (quickstart's `--case FILE [steps]`).
  const ParamDecl* replaces_first = nullptr;

  /// argv[1..argc) keyed by declaration name, each value checked; throws
  /// UsageError naming the argument.
  ParamMap parse(int argc, const char* const* argv) const;
  /// "usage: <program> ...", then one line per input with its doc and range.
  std::string usage() const;
  /// A host's main: run(parse(argc, argv)). A UsageError returns 64 with the
  /// error and usage() in `message`, any other felis::Error 65 with
  /// "<program>: <error>"; the host prints `message` to stderr.
  int main(int argc, const char* const* argv,
           const std::function<int(const ParamMap&)>& run, std::string& message) const;
};

}  // namespace felis
