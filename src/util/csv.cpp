#include "util/csv.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/fault.hpp"

namespace adr::util {

std::vector<std::string> csv_split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"' && cur.empty()) {
      quoted = true;
    } else if (c == sep) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r' && i + 1 == line.size()) {
      // tolerate CRLF input
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

/// The one quoting rule: a field holding the separator, a quote or a
/// newline is quoted, with embedded quotes doubled.
void append_field(std::string& out, std::string_view f, char sep) {
  const bool needs_quote = f.find(sep) != std::string_view::npos ||
                           f.find('"') != std::string_view::npos ||
                           f.find('\n') != std::string_view::npos;
  if (!needs_quote) {
    out += f;
    return;
  }
  out.push_back('"');
  for (char c : f) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

std::string csv_join(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out.push_back(sep);
    append_field(out, fields[i], sep);
  }
  return out;
}

CsvReader::CsvReader(std::istream& in, char sep) : in_(in), sep_(sep) {}

bool CsvReader::read_header() {
  auto row = next();
  if (!row) return false;
  header_ = std::move(*row);
  return true;
}

std::optional<std::vector<std::string>> CsvReader::next() {
  std::string line;
  while (std::getline(in_, line)) {
    ++line_;
    if (line.empty() || line == "\r") continue;
    if (line[0] == '#') continue;  // metadata (e.g. the #ADRCRC footer)
    raw_ = line;
    if (!raw_.empty() && raw_.back() == '\r') raw_.pop_back();
    return csv_split(line, sep_);
  }
  return std::nullopt;
}

std::size_t CsvReader::column(const std::string& name) const {
  const auto it = std::find(header_.begin(), header_.end(), name);
  return it == header_.end() ? npos
                             : static_cast<std::size_t>(it - header_.begin());
}

CsvWriter::CsvWriter(std::ostream& out, char sep) : out_(out), sep_(sep) {}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  begin_row();
  for (const auto& f : fields) put(f);
  end_row();
}

void CsvWriter::begin_row() {
  auto& inj = FaultInjector::global();
  if (inj.armed()) inj.crash_point("csv.row");
  row_.clear();
  first_ = true;
}

void CsvWriter::end_row() {
  row_.push_back('\n');
  out_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
}

void CsvWriter::put(std::string_view field) {
  separate();
  append_field(row_, field, sep_);
}

void CsvWriter::put(double value) {
  separate();
  // to_chars(general, 17) is specified as printf("%.17g") in the C locale.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17);
  row_.append(buf, res.ptr);
}

}  // namespace adr::util
