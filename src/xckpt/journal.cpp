#include "xckpt/journal.hpp"

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "xckpt/snapshot.hpp"
#include "xutil/check.hpp"

namespace xckpt {

namespace {

/// Splits on `sep`; no quoting (both file grammars forbid the separator
/// inside fields).
std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Reads complete ('\n'-terminated) lines; a crash mid-append leaves an
/// unterminated tail, which both loaders must treat as never written.
std::vector<std::string> complete_lines(const std::string& path,
                                        bool* had_torn_tail) {
  *had_torn_tail = false;
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  if (!in.good()) return lines;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      *had_torn_tail = true;  // unterminated tail: dropped
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

void flush_and_sync(std::FILE* f, const std::string& path) {
  XU_CHECK_MSG(std::fflush(f) == 0, "flush failed: " << path);
  XU_CHECK_MSG(::fsync(::fileno(f)) == 0, "fsync failed: " << path);
}

}  // namespace

WorkJournal::WorkJournal(const std::string& path) : path_(path) {
  bool torn = false;
  for (const std::string& line : complete_lines(path_, &torn)) {
    // Line grammar: <crc32 hex of "key\tvalue">\t<key>\t<value>
    const auto fields = split(line, '\t');
    if (fields.size() != 3) {
      ++dropped_;
      continue;
    }
    const std::string body = fields[1] + "\t" + fields[2];
    char* end = nullptr;
    const unsigned long want = std::strtoul(fields[0].c_str(), &end, 16);
    if (end == nullptr || *end != '\0' ||
        crc32(body.data(), body.size()) != want) {
      ++dropped_;
      continue;
    }
    map_[fields[1]] = fields[2];
  }
  if (torn) ++dropped_;
  out_ = std::fopen(path_.c_str(), "ab");
  XU_CHECK_MSG(out_ != nullptr, "cannot open journal for append: " << path_);
}

WorkJournal::~WorkJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

bool WorkJournal::has(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.count(key) != 0;
}

std::string WorkJournal::value(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  return it == map_.end() ? std::string() : it->second;
}

void WorkJournal::record(const std::string& key, const std::string& value) {
  XU_CHECK_MSG(key.find_first_of("\t\n") == std::string::npos &&
                   value.find_first_of("\t\n") == std::string::npos,
               "journal keys/values must not contain tabs or newlines");
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string body = key + "\t" + value;
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x",
                crc32(body.data(), body.size()));
  const std::string line = std::string(crc) + "\t" + body + "\n";
  XU_CHECK_MSG(
      std::fwrite(line.data(), 1, line.size(), out_) == line.size(),
      "journal append failed: " << path_);
  flush_and_sync(out_, path_);
  map_[key] = value;
}

std::size_t WorkJournal::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

DurableCsv::DurableCsv(const std::string& path,
                       const std::vector<std::string>& header)
    : path_(path), columns_(header.size()) {
  XU_CHECK_MSG(!header.empty(), "DurableCsv needs a header");
  std::string header_line;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i != 0) header_line += ',';
    header_line += header[i];
  }

  bool torn = false;
  const auto lines = complete_lines(path_, &torn);
  const bool compatible = !lines.empty() && lines[0] == header_line;
  if (compatible) {
    for (std::size_t i = 1; i < lines.size(); ++i) {
      auto fields = split(lines[i], ',');
      if (fields.size() != columns_ || fields[0].empty()) continue;
      const std::string key = fields[0];
      if (rows_.emplace(key, std::move(fields)).second) ++recovered_;
    }
  }
  restarted_ = !lines.empty() && !compatible;

  if (!compatible || torn) {
    // Fresh file, schema change, or a torn tail: replace the file with the
    // rows we trust (header + recovered complete rows) so it never carries
    // a partial line forward. The replacement is atomic, so a crash
    // mid-rewrite leaves the old file and its rows for the next restart.
    std::string text = header_line + "\n";
    for (const auto& [key, fields] : rows_) {
      (void)key;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i != 0) text += ',';
        text += fields[i];
      }
      text += '\n';
    }
    write_file_atomic(path_, text);
  }
  out_ = std::fopen(path_.c_str(), "ab");
  XU_CHECK_MSG(out_ != nullptr, "cannot open CSV for append: " << path_);
}

DurableCsv::~DurableCsv() {
  if (out_ != nullptr) std::fclose(out_);
}

bool DurableCsv::has(const std::string& key) const {
  return rows_.count(key) != 0;
}

std::vector<std::string> DurableCsv::row(const std::string& key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? std::vector<std::string>() : it->second;
}

void DurableCsv::append(const std::vector<std::string>& row) {
  XU_CHECK_MSG(row.size() == columns_,
               "CSV row has " << row.size() << " fields, header has "
                              << columns_);
  std::string line;
  for (std::size_t i = 0; i < row.size(); ++i) {
    XU_CHECK_MSG(row[i].find_first_of(",\"\n\r") == std::string::npos,
                 "DurableCsv fields must not contain commas/quotes/newlines: '"
                     << row[i] << "'");
    if (i != 0) line += ',';
    line += row[i];
  }
  line += '\n';
  XU_CHECK_MSG(std::fwrite(line.data(), 1, line.size(), out_) == line.size(),
               "CSV append failed: " << path_);
  flush_and_sync(out_, path_);
  rows_[row[0]] = row;
}

}  // namespace xckpt
