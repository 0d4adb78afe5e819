#pragma once
// RFC-4180-style CSV reading/writing.
//
// All trace artifacts (job logs, publication lists, app logs, user registry)
// persist as CSV so a reproduction run can be driven either from synthesized
// traces or from site-local logs exported in the same shape.

#include <charconv>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace adr::util {

/// Split one CSV line into fields, honouring double-quote quoting and
/// "" escapes. Embedded newlines are not supported (trace files are
/// line-oriented).
std::vector<std::string> csv_split(const std::string& line, char sep = ',');

/// Join fields into one CSV line, quoting any field that needs it.
std::string csv_join(const std::vector<std::string>& fields, char sep = ',');

/// Streaming reader over an istream. Skips blank lines and `#`-prefixed
/// metadata lines (the io::AtomicWriter CRC footer); `header()` is the first
/// row when read_header() was requested.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in, char sep = ',');

  /// Read the first row as a header; returns false on empty input.
  bool read_header();

  /// Next data row; std::nullopt at EOF.
  std::optional<std::vector<std::string>> next();

  const std::vector<std::string>& header() const { return header_; }

  /// Column index for a header name, or npos.
  std::size_t column(const std::string& name) const;

  /// 1-based physical line number of the most recently returned row, and
  /// its raw text — context for ParseError messages and quarantine sidecars.
  std::size_t line() const { return line_; }
  const std::string& raw() const { return raw_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::istream& in_;
  char sep_;
  std::vector<std::string> header_;
  std::size_t line_ = 0;
  std::string raw_;
};

/// Streaming writer. Each row is formatted into one reused buffer and handed
/// to the stream in one write. Fault point: csv.row (crash before the Nth
/// row, header included).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char sep = ',');

  /// Write one row of typed fields. Strings are quoted as csv_join quotes
  /// them, integers print as std::to_string prints them, and doubles print
  /// with 17 significant digits, as printf("%.17g") does.
  template <typename... Fields>
  void row(const Fields&... fields) {
    begin_row();
    (put(fields), ...);
    end_row();
  }

  /// The same row from preformatted fields.
  void write_row(const std::vector<std::string>& fields);

 private:
  void begin_row();
  void end_row();
  void separate() {
    if (!first_) row_.push_back(sep_);
    first_ = false;
  }
  void put(std::string_view field);
  void put(const std::string& field) { put(std::string_view(field)); }
  void put(const char* field) { put(std::string_view(field)); }
  void put(double value);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void put(T value) {
    separate();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    row_.append(buf, res.ptr);
  }

  std::ostream& out_;
  char sep_;
  std::string row_;
  bool first_ = true;
};

}  // namespace adr::util
