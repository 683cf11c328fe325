#include "trace/serialize.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace predctrl {

namespace {

bool is_space(int c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

// Whitespace-separated tokens read straight from the stream buffer, with
// `#` comments running to the end of the line. It leaves the stream where
// `is >> token` would: just past the last token, with eofbit set when that
// token ends the input. One token buffer is reused for the whole parse.
class Tokenizer {
 public:
  explicit Tokenizer(std::istream& is) : is_(is) {}

  // Reads the next non-comment token.
  const std::string& next() {
    std::streambuf* sb = is_.rdbuf();
    if (is_.good() && sb != nullptr) {
      for (int c = sb->sgetc();; c = sb->sgetc()) {
        while (c != kEof && is_space(c)) c = sb->snextc();
        if (c == kEof) break;
        if (c == '#') {
          while (c != kEof && c != '\n') c = sb->snextc();
          if (c == kEof) break;
          sb->sbumpc();
          continue;
        }
        tok_.clear();
        do {
          tok_.push_back(static_cast<char>(c));
          c = sb->snextc();
        } while (c != kEof && !is_space(c));
        if (c == kEof) is_.setstate(std::ios::eofbit);
        return tok_;
      }
    }
    is_.setstate(std::ios::eofbit | std::ios::failbit);
    throw std::invalid_argument("unexpected end of input while parsing");
  }

  // The next token as a whole base-10 integer.
  int64_t next_int() {
    const std::string& tok = next();
    int64_t value = 0;
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
    if (ec != std::errc() || ptr != end)
      throw std::invalid_argument("expected integer, got '" + tok + "'");
    return value;
  }

  // next_int for per-process fields (lengths, message endpoints).
  int32_t next_i32() {
    const int64_t value = next_int();
    PREDCTRL_CHECK(value >= std::numeric_limits<int32_t>::min() &&
                       value <= std::numeric_limits<int32_t>::max(),
                   "integer " + tok_ + " out of int32 range");
    return static_cast<int32_t>(value);
  }

  void expect(const char* keyword) {
    const std::string& tok = next();
    PREDCTRL_CHECK(tok == keyword,
                   "expected '" + std::string(keyword) + "', got '" + tok + "'");
  }

 private:
  static constexpr int kEof = std::char_traits<char>::eof();

  std::istream& is_;
  std::string tok_;
};

}  // namespace

void write_deposet(std::ostream& os, const Deposet& deposet) {
  os << "deposet " << deposet.num_processes() << "\n";
  os << "lengths";
  for (ProcessId p = 0; p < deposet.num_processes(); ++p) os << ' ' << deposet.length(p);
  os << "\n";
  for (const MessageEdge& m : deposet.messages())
    os << "msg " << m.from.process << ' ' << m.from.index << ' ' << m.to.process << ' '
       << m.to.index << "\n";
  os << "end\n";
}

Deposet read_deposet(std::istream& is) {
  Tokenizer in(is);
  in.expect("deposet");
  int64_t n = in.next_int();
  PREDCTRL_CHECK(n >= 1 && n <= (1 << 20), "implausible process count");
  DeposetBuilder builder(static_cast<int32_t>(n));
  in.expect("lengths");
  for (ProcessId p = 0; p < n; ++p) builder.set_length(p, in.next_i32());
  for (;;) {
    const std::string& tok = in.next();
    if (tok == "end") break;
    PREDCTRL_CHECK(tok == "msg", "expected 'msg' or 'end', got '" + tok + "'");
    StateId from{in.next_i32(), in.next_i32()};
    StateId to{in.next_i32(), in.next_i32()};
    builder.add_message(from, to);
  }
  return builder.build();
}

void write_predicate_table(std::ostream& os, const PredicateTable& table) {
  os << "predicate " << table.size() << "\n";
  for (const auto& row : table) {
    os << "row " << row.size();
    for (bool b : row) os << ' ' << (b ? 1 : 0);
    os << "\n";
  }
  os << "end\n";
}

PredicateTable read_predicate_table(std::istream& is) {
  Tokenizer in(is);
  in.expect("predicate");
  int64_t n = in.next_int();
  PREDCTRL_CHECK(n >= 1 && n <= (1 << 20), "implausible process count");
  PredicateTable table(static_cast<size_t>(n));
  for (auto& row : table) {
    in.expect("row");
    int64_t len = in.next_int();
    PREDCTRL_CHECK(len >= 1 && len <= (1LL << 30), "implausible row length");
    row.resize(static_cast<size_t>(len));
    for (size_t k = 0; k < row.size(); ++k) row[k] = (in.next_int() != 0);
  }
  in.expect("end");
  return table;
}

std::string deposet_to_string(const Deposet& deposet) {
  std::ostringstream os;
  write_deposet(os, deposet);
  return os.str();
}

Deposet deposet_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_deposet(is);
}

}  // namespace predctrl
