#include "src/io/wire.hpp"

#include <charconv>
#include <cstdio>

namespace emi::io {

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

std::optional<std::string> kv_value(const std::vector<std::string>& tokens,
                                    std::string_view key) {
  for (const std::string& t : tokens) {
    if (t.size() > key.size() && t.compare(0, key.size(), key) == 0 &&
        t[key.size()] == '=') {
      return t.substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool parse_u64(std::string_view s, std::uint64_t& out, int base) {
  // from_chars takes no whitespace, '+' or 0x prefix, and no '-' for an
  // unsigned type; a short read or overflow is the rest of "strict".
  std::uint64_t v = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

core::Status LineFramer::feed(std::string_view bytes) {
  if (poisoned_) {
    return core::Status(core::ErrorCode::kFailedPrecondition, "io.wire",
                        "framer poisoned by an oversized line");
  }
  buf_.append(bytes);
  // Compact once consumed lines dominate the buffer, so a long-lived
  // connection does not grow it monotonically.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ > max_line_ &&
      buf_.find('\n', pos_) == std::string::npos) {
    poisoned_ = true;
    return core::Status(core::ErrorCode::kInvalidArgument, "io.wire",
                        "line exceeds " + std::to_string(max_line_) + " bytes");
  }
  return core::Status();
}

std::optional<std::string> LineFramer::next_line() {
  if (poisoned_) return std::nullopt;
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) return std::nullopt;
  std::size_t end = nl;
  if (end > pos_ && buf_[end - 1] == '\r') --end;
  std::string line = buf_.substr(pos_, end - pos_);
  pos_ = nl + 1;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return line;
}

}  // namespace emi::io
