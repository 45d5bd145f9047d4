/// \file json.hpp
/// \brief felis's one JSON codec. The manifest, each rank's `run.ndjson`,
/// `status.json` and both Chrome traces are written and read here, so their
/// format is decided once: strings escape `"`, `\`, `\n`, `\t`, `\r` and any
/// other control byte (as `\u00XX`) and pass every other byte through; a
/// number is its shortest round-trip form (locale-free `std::to_chars`), an
/// integral one up to 2^53 written as an integer and a non-finite one as 0
/// (JSON has no Inf or NaN); a journal line counts only as one whole object.
#pragma once

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace felis {

/// JSON-escape `s` for embedding inside a double-quoted string.
std::string json_escape(std::string_view s);
/// The JSON text of the number `v`.
std::string json_number(double v);

/// The text around an object's members; the default is the compact
/// journal-line form.
struct JsonLayout {
  std::string_view open = "{", comma = ",", colon = ":", close = "}";
};

/// One JSON object, written member by member in call order. A nested object
/// is written by its own writer and added with raw() or object().
class JsonWriter {
 public:
  explicit JsonWriter(JsonLayout layout = {}) : layout_(layout) { out_ += layout_.open; }

  JsonWriter& field(std::string_view key, double v) { return raw(key, json_number(v)); }
  JsonWriter& field(std::string_view key, std::string_view v) {
    return raw(key, '"' + json_escape(v) + '"');
  }
  JsonWriter& fields(std::initializer_list<std::pair<std::string_view, double>> m) {
    for (const auto& [k, v] : m) field(k, v);
    return *this;
  }
  /// One member per map entry (numbers or strings), in key order.
  template <class V>
  JsonWriter& fields(const std::map<std::string, V>& m) {
    for (const auto& [k, v] : m) field(k, v);
    return *this;
  }
  JsonWriter& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  /// A member whose value is already JSON text.
  JsonWriter& raw(std::string_view key, std::string_view json);
  /// A compact object member holding fields(m).
  template <class V>
  JsonWriter& object(std::string_view key, const std::map<std::string, V>& m) {
    return raw(key, JsonWriter().fields(m).done());
  }
  /// The object, closed.
  std::string done() { return std::move(out_ += layout_.close); }

 private:
  JsonLayout layout_;
  std::string out_;
  bool empty_ = true;
};

/// The members of one JSON object: strings and numbers by key. Literals
/// (true, false, null) and arrays are checked but not kept.
struct JsonFields {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;

  /// The string member `key`, or nullptr when there is none.
  const std::string* string(const std::string& key) const;
  /// The number member `key`, or 0 when there is none.
  double number(const std::string& key) const;
};

/// One journal record: the top-level members plus, for each object member
/// (`metrics`, `metadata`, `overrides`), that object's own members. Objects
/// nested deeper (a telemetry histogram inside `metrics`) are checked but
/// not kept.
struct JsonRecord : JsonFields {
  std::map<std::string, JsonFields> objects;

  /// The object member `key` (empty when there is none).
  const JsonFields& object(const std::string& key) const;
};

/// The one reader of a journal line: the record when the whole line is one
/// JSON object, else nullopt — a line torn anywhere short of its final `}`
/// never parses. Decodes every escape json_escape writes and the rest of
/// JSON's (`\/`, `\b`, `\f`, any `\uXXXX`, kept as UTF-8).
std::optional<JsonRecord> parse_json_record(std::string_view line);

}  // namespace felis
