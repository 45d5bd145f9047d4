#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace felis {

namespace {

/// Recursive descent over one line, JSON's grammar (RFC 8259). Each rule
/// returns false on the first byte that does not fit, and the caller drops
/// the whole line.
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  std::optional<JsonRecord> record() {
    JsonRecord rec;
    space();
    if (!object(&rec, &rec.objects, 0)) return std::nullopt;
    space();
    if (pos_ != text_.size()) return std::nullopt;
    return rec;
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool eat(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void space() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  /// An object whose scalar members go to `fields` and whose object members
  /// go to `objects`; a null target checks the members without keeping them.
  bool object(JsonFields* fields, std::map<std::string, JsonFields>* objects,
              int depth) {
    if (depth > kMaxDepth || !eat('{')) return false;
    space();
    if (eat('}')) return true;
    do {
      space();
      std::string key;
      if (!string(&key)) return false;
      space();
      if (!eat(':')) return false;
      space();
      if (!value(key, fields, objects, depth)) return false;
      space();
    } while (eat(','));
    return eat('}');
  }

  bool value(const std::string& key, JsonFields* fields,
             std::map<std::string, JsonFields>* objects, int depth) {
    if (peek() == '{')
      return object(objects ? &(*objects)[key] : nullptr, nullptr, depth + 1);
    if (peek() == '[') return array(depth + 1);
    if (peek() == '"') {
      std::string s;
      if (!string(&s)) return false;
      if (fields) fields->strings[key] = std::move(s);
      return true;
    }
    if (literal("true") || literal("false") || literal("null")) return true;
    double v = 0;
    if (!number(&v)) return false;
    if (fields) fields->numbers[key] = v;
    return true;
  }

  bool array(int depth) {
    if (depth > kMaxDepth || !eat('[')) return false;
    space();
    if (eat(']')) return true;
    do {
      space();
      if (!value("", nullptr, nullptr, depth)) return false;
      space();
    } while (eat(','));
    return eat(']');
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool digits() {
    const usize begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > begin;
  }

  bool number(double* out) {
    const usize begin = pos_;
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && end == last;
  }

  bool hex4(std::uint32_t* code) {
    if (text_.size() - pos_ < 4) return false;
    const char* first = text_.data() + pos_;
    pos_ += 4;
    const auto [end, ec] = std::from_chars(first, first + 4, *code, 16);
    return ec == std::errc() && end == first + 4;
  }

  /// The code point of a `\uXXXX` escape (the `\u` already read; a
  /// surrogate pair takes two escapes), appended as UTF-8.
  bool unicode(std::string* out) {
    std::uint32_t cp = 0;
    if (!hex4(&cp) || (cp >= 0xdc00 && cp <= 0xdfff)) return false;
    if (cp >= 0xd800 && cp <= 0xdbff) {
      std::uint32_t low = 0;
      if (!eat('\\') || !eat('u') || !hex4(&low) || low < 0xdc00 ||
          low > 0xdfff)
        return false;
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr std::uint32_t kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    out->push_back(static_cast<char>(kLead[extra] | (cp >> (6 * extra))));
    for (int k = extra - 1; k >= 0; --k)
      out->push_back(static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f)));
    return true;
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      switch (const char e = text_[pos_++]) {
        case '"':
        case '\\':
        case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          if (!unicode(out)) return false;
          break;
        default: return false;
      }
    }
    return false;  // torn mid-string
  }

  std::string_view text_;
  usize pos_ = 0;
};

}  // namespace

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        } else {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  // Fixed notation keeps an integral value's digits (1e5 prints as 100000);
  // the plain overload is the shortest form that round-trips.
  const bool integral = std::fabs(v) <= 0x1p53 && v == std::trunc(v);
  const std::to_chars_result res =
      integral ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed)
               : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

JsonWriter& JsonWriter::raw(std::string_view key, std::string_view json) {
  if (!empty_) out_ += layout_.comma;
  empty_ = false;
  out_ += '"' + json_escape(key) + '"';
  out_ += layout_.colon;
  out_ += json;
  return *this;
}

const std::string* JsonFields::string(const std::string& key) const {
  const auto it = strings.find(key);
  return it != strings.end() ? &it->second : nullptr;
}

double JsonFields::number(const std::string& key) const {
  const auto it = numbers.find(key);
  return it != numbers.end() ? it->second : 0.0;
}

const JsonFields& JsonRecord::object(const std::string& key) const {
  static const JsonFields kNone;
  const auto it = objects.find(key);
  return it != objects.end() ? it->second : kNone;
}

std::optional<JsonRecord> parse_json_record(std::string_view line) {
  return LineParser(line).record();
}

}  // namespace felis
