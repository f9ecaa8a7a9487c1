#include "repro/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace knl::repro::json {

namespace {

const std::string kEmptyString;
const Array kEmptyArray;
const Object kEmptyObject;

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  char* const last = buf + sizeof buf;
  // Integral values print as plain integers ("350", not the shortest-%g
  // "3.5e+02"), keeping golden artifacts readable; they round-trip exactly
  // for magnitudes below 2^53. Non-finite values keep printf's spelling.
  if (!std::isfinite(v) || (v == std::floor(v) && std::fabs(v) < 9007199254740992.0)) {
    out.append(buf, std::to_chars(buf, last, v, std::chars_format::fixed, 0).ptr);
    return;
  }
  // The shortest round-trip form fixes the digit count d. No %.*g precision
  // below d can round-trip, so the first precision from d on whose %.*g text
  // parses back to v is the one a 1..17 probe would stop at. Starting at d
  // alone is not enough: where the rounding interval is asymmetric (powers
  // of two and their neighbours) %.{d}g can round away from v.
  char* const sci_end = std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
  int precision = static_cast<int>(std::count_if(
      buf, std::find(buf, sci_end, 'e'), [](char c) { return c >= '0' && c <= '9'; }));
  while (true) {
    char* const text_end =
        std::to_chars(buf, last, v, std::chars_format::general, precision).ptr;
    double back = 0.0;
    std::from_chars(buf, text_end, back);
    if (back == v || precision >= 17) {
      out.append(buf, text_end);
      return;
    }
    ++precision;
  }
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the raw buffer.
// ---------------------------------------------------------------------------
struct Parser {
  const char* cur;
  const char* end;
  std::string error;

  void skip_ws() {
    while (cur < end && (*cur == ' ' || *cur == '\t' || *cur == '\n' || *cur == '\r')) {
      ++cur;
    }
  }

  bool fail(const std::string& what) {
    if (error.empty()) error = what;
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end - cur) < n || std::strncmp(cur, word, n) != 0) {
      return fail(std::string("expected '") + word + "'");
    }
    cur += n;
    return true;
  }

  bool parse_string(std::string& out) {
    if (cur >= end || *cur != '"') return fail("expected string");
    ++cur;
    out.clear();
    while (cur < end && *cur != '"') {
      if (*cur == '\\') {
        if (++cur >= end) return fail("truncated escape");
        switch (*cur) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (end - cur < 5) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = cur[i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            cur += 4;
            // UTF-8 encode (artifacts only ever hold BMP text).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return fail("unknown escape");
        }
        ++cur;
      } else {
        out += *cur++;
      }
    }
    if (cur >= end) return fail("unterminated string");
    ++cur;  // closing quote
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (cur >= end) return fail("unexpected end of input");
    switch (*cur) {
      case 'n': if (!literal("null")) return false; out = Value(nullptr); return true;
      case 't': if (!literal("true")) return false; out = Value(true); return true;
      case 'f': if (!literal("false")) return false; out = Value(false); return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case '[': {
        ++cur;
        Array items;
        skip_ws();
        if (cur < end && *cur == ']') { ++cur; out = Value(std::move(items)); return true; }
        while (true) {
          Value item;
          if (!parse_value(item)) return false;
          items.push_back(std::move(item));
          skip_ws();
          if (cur < end && *cur == ',') { ++cur; continue; }
          if (cur < end && *cur == ']') { ++cur; break; }
          return fail("expected ',' or ']'");
        }
        out = Value(std::move(items));
        return true;
      }
      case '{': {
        ++cur;
        Object members;
        skip_ws();
        if (cur < end && *cur == '}') { ++cur; out = Value(std::move(members)); return true; }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (cur >= end || *cur != ':') return fail("expected ':'");
          ++cur;
          Value value;
          if (!parse_value(value)) return false;
          members.emplace_back(std::move(key), std::move(value));
          skip_ws();
          if (cur < end && *cur == ',') { ++cur; continue; }
          if (cur < end && *cur == '}') { ++cur; break; }
          return fail("expected ',' or '}'");
        }
        out = Value(std::move(members));
        return true;
      }
      default: return parse_number(out);
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  const char* skip_digits(const char* p) const {
    while (p < end && is_digit(*p)) ++p;
    return p;
  }

  // RFC 8259 number: -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?, converted by
  // from_chars (correctly rounded like strtod, but locale-independent).
  bool parse_number(Value& out) {
    const char* p = cur;
    const bool negative = p < end && *p == '-';
    if (negative) ++p;
    if (p >= end || !is_digit(*p)) return fail("expected value");
    const char* int_end = *p == '0' ? p + 1 : skip_digits(p);
    const char* mantissa_end = int_end;
    if (mantissa_end < end && *mantissa_end == '.') {
      if (mantissa_end + 1 >= end || !is_digit(mantissa_end[1])) {
        return fail("expected digit after '.'");
      }
      mantissa_end = skip_digits(mantissa_end + 1);
    }
    const char* token_end = mantissa_end;
    const char* exp_digits = nullptr;
    bool exp_negative = false;
    if (token_end < end && (*token_end == 'e' || *token_end == 'E')) {
      exp_digits = token_end + 1;
      if (exp_digits < end && (*exp_digits == '+' || *exp_digits == '-')) {
        exp_negative = *exp_digits++ == '-';
      }
      if (exp_digits >= end || !is_digit(*exp_digits)) return fail("expected exponent digit");
      token_end = skip_digits(exp_digits);
    }

    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(cur, token_end, v);
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves `v` alone past the double range. strtod gave inf
      // there (rejected) or a zero (kept): the decimal exponent of the
      // leading significant digit says which.
      long long exponent = 0;
      for (const char* d = exp_digits; d != nullptr && d < token_end; ++d) {
        if (exponent < 1'000'000'000'000) exponent = exponent * 10 + (*d - '0');
      }
      if (exp_negative) exponent = -exponent;
      const char* lead =
          std::find_if(p, mantissa_end, [](char c) { return c >= '1' && c <= '9'; });
      exponent += lead < int_end ? int_end - lead - 1 : int_end - lead;
      if (exponent > 0) return fail("number out of range");
      v = negative ? -0.0 : 0.0;
    } else if (ec != std::errc() || ptr != token_end) {
      return fail("expected value");
    }
    cur = token_end;
    out = Value(v);
    return true;
  }
};

void dump_value(const Value& v, std::string& out, int indent, int depth);

template <typename Item>
void dump_container(const char open, const char close, std::size_t count,
                    std::string& out, int indent, int depth, Item&& item) {
  out += open;
  if (count == 0) {
    out += close;
    return;
  }
  const auto pad = static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth);
  for (std::size_t i = 0; i < count; ++i) {
    if (indent > 0) {
      out += '\n';
      out.append(pad + static_cast<std::size_t>(indent), ' ');
    }
    item(i);
    if (i + 1 < count) out += indent > 0 ? "," : ", ";
  }
  if (indent > 0) {
    out += '\n';
    out.append(pad, ' ');
  }
  out += close;
}

void dump_value(const Value& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_number(out, v.as_number());
  } else if (v.is_string()) {
    append_escaped(out, v.as_string());
  } else if (v.is_array()) {
    const Array& items = v.as_array();
    dump_container('[', ']', items.size(), out, indent, depth,
                   [&](std::size_t i) { dump_value(items[i], out, indent, depth + 1); });
  } else {
    const Object& members = v.as_object();
    dump_container('{', '}', members.size(), out, indent, depth,
                   [&](std::size_t i) {
                     append_escaped(out, members[i].first);
                     out += ": ";
                     dump_value(members[i].second, out, indent, depth + 1);
                   });
  }
}

}  // namespace

bool Value::as_bool(bool fallback) const {
  const bool* b = std::get_if<bool>(&data_);
  return b != nullptr ? *b : fallback;
}

double Value::as_number(double fallback) const {
  const double* d = std::get_if<double>(&data_);
  return d != nullptr ? *d : fallback;
}

const std::string& Value::as_string() const {
  const std::string* s = std::get_if<std::string>(&data_);
  return s != nullptr ? *s : kEmptyString;
}

const Array& Value::as_array() const {
  const Array* a = std::get_if<Array>(&data_);
  return a != nullptr ? *a : kEmptyArray;
}

const Object& Value::as_object() const {
  const Object* o = std::get_if<Object>(&data_);
  return o != nullptr ? *o : kEmptyObject;
}

const Value* Value::find(const std::string& key) const {
  const Object* o = std::get_if<Object>(&data_);
  if (o == nullptr) return nullptr;
  for (const Member& m : *o) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void Value::set(const std::string& key, Value value) {
  if (!is_object()) data_ = Object{};
  Object& o = std::get<Object>(data_);
  for (Member& m : o) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  o.emplace_back(key, std::move(value));
}

void Value::push_back(Value value) {
  if (!is_array()) data_ = Array{};
  std::get<Array>(data_).push_back(std::move(value));
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

std::optional<Value> Value::parse(const std::string& text, std::string* error) {
  Parser p{text.data(), text.data() + text.size(), {}};
  Value v;
  if (!p.parse_value(v)) {
    if (error != nullptr) {
      *error = p.error + " at offset " + std::to_string(p.cur - text.data());
    }
    return std::nullopt;
  }
  p.skip_ws();
  if (p.cur != p.end) {
    if (error != nullptr) {
      *error = "trailing characters at offset " + std::to_string(p.cur - text.data());
    }
    return std::nullopt;
  }
  return v;
}

std::string format_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

}  // namespace knl::repro::json
