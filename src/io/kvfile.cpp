#include "src/io/kvfile.hpp"

#include <fstream>
#include <sstream>

#include "src/core/fault_injection.hpp"
#include "src/io/atomic_writer.hpp"
#include "src/io/wire.hpp"

namespace emi::io {

namespace {

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

core::Status parse_error(std::size_t line_no, const std::string& msg) {
  return core::Status(core::ErrorCode::kParseError, "io.kvfile",
                      "line " + std::to_string(line_no) + ": " + msg);
}

}  // namespace

std::string serialize_kv(std::string_view magic, std::span<const KvRecord> records) {
  std::ostringstream out;
  out << magic << '\n';
  for (const auto& [key, value] : records) {
    out << "kv " << one_line(key) << ' ' << one_line(value) << '\n';
  }
  std::string payload = out.str();
  payload += "checksum " + hex64(core::fault::fnv64(payload)) + '\n';
  return payload;
}

core::Result<std::vector<KvRecord>> parse_kv(std::string_view magic,
                                             const std::string& text) {
  if (text.empty()) return parse_error(1, "empty file");

  const std::size_t pos = text.rfind("checksum ");
  if (pos == std::string::npos || (pos != 0 && text[pos - 1] != '\n')) {
    const std::size_t last_line =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
    return parse_error(last_line, "missing checksum line (truncated file?)");
  }
  const std::size_t payload_lines = static_cast<std::size_t>(
      std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
  const std::size_t eol = text.find('\n', pos);
  if (eol != std::string::npos && eol + 1 != text.size()) {
    return parse_error(payload_lines + 2, "trailing data after checksum line");
  }
  std::string checksum_hex = text.substr(pos + 9);
  while (!checksum_hex.empty() &&
         (checksum_hex.back() == '\n' || checksum_hex.back() == '\r')) {
    checksum_hex.pop_back();
  }
  std::uint64_t want = 0;
  if (checksum_hex.size() != 16 || !parse_u64(checksum_hex, want, 16)) {
    return parse_error(payload_lines + 1, "malformed checksum value");
  }
  const std::string payload = text.substr(0, pos);
  if (core::fault::fnv64(payload) != want) {
    return parse_error(payload_lines + 1,
                       "checksum mismatch (torn write or corruption)");
  }

  std::istringstream ss(payload);
  std::string line;
  std::size_t line_no = 0;
  std::vector<KvRecord> records;
  while (std::getline(ss, line)) {
    ++line_no;
    if (line_no == 1) {
      if (line != magic) {
        return parse_error(1, "expected magic '" + std::string(magic) + "', got '" +
                                  line + "'");
      }
      continue;
    }
    if (line.compare(0, 3, "kv ") != 0) {
      return parse_error(line_no, "malformed 'kv' record");
    }
    const std::size_t key_start = 3;
    const std::size_t key_end = line.find(' ', key_start);
    if (key_end == std::string::npos || key_end == key_start) {
      return parse_error(line_no, "kv record missing value");
    }
    records.emplace_back(line.substr(key_start, key_end - key_start),
                         line.substr(key_end + 1));
  }
  if (line_no == 0) return parse_error(1, "missing magic line");
  return records;
}

core::Status save_kv_file(const std::string& path, std::string_view magic,
                          std::span<const KvRecord> records) {
  AtomicFileWriter w(path);
  return w.commit_content(serialize_kv(magic, records));
}

core::Result<std::vector<KvRecord>> load_kv_file(const std::string& path,
                                                 std::string_view magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return core::Status(core::ErrorCode::kIoError, "io.kvfile",
                        "cannot open: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return core::Status(core::ErrorCode::kIoError, "io.kvfile",
                        "cannot read: " + path);
  }
  return parse_kv(magic, ss.str());
}

}  // namespace emi::io
