// Line-oriented wire protocol framing for the serve mode: a byte stream
// arrives in arbitrary chunks (partial lines, several lines per read), and
// the framer re-slices it into complete '\n'-terminated lines with a hard
// per-line size guard, so a misbehaving or malicious client cannot grow the
// server's buffer without bound.
//
// The protocol itself (src/svc/server.cpp) is space-separated tokens:
//   SUBMIT design=<path> ...\n
//   STATUS job=<id>\n
// split_tokens / kv_value do the token-level parsing; hex64 / parse_u64 are
// the one rendering and the one strict parse of integer fields shared by
// every line format (wire replies, job records, kvfiles, checkpoints, CLI
// flags). Everything here is pure string manipulation - no sockets, no
// threads - so the framing and parsing are unit-testable without I/O.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/status.hpp"

namespace emi::io {

// Whitespace-separated tokens (space/tab); empty tokens never appear.
std::vector<std::string> split_tokens(std::string_view line);

// Protocol fields are `key=value` tokens. Returns the value of the first
// token carrying `key`, or nullopt. The value may be empty ("key=").
std::optional<std::string> kv_value(const std::vector<std::string>& tokens,
                                    std::string_view key);

// 16 lowercase, zero-padded hex digits: checksums, digests, fingerprints
// and (via std::bit_cast) exact double bit patterns.
std::string hex64(std::uint64_t v);

// Strict unsigned parse of a whole token: non-empty, digits of `base` only
// (no sign, whitespace or 0x prefix), overflow rejected. `out` is written
// only on success.
bool parse_u64(std::string_view s, std::uint64_t& out, int base = 10);

class LineFramer {
 public:
  // Generous for the serve protocol (paths and ids, not payloads); a line
  // beyond this poisons the framer instead of buffering forever.
  static constexpr std::size_t kMaxLine = 64 * 1024;

  explicit LineFramer(std::size_t max_line = kMaxLine) : max_line_(max_line) {}

  // Append received bytes. Returns kResourceExhausted-style kInvalidArgument
  // once an unterminated line exceeds the guard; the framer then stays
  // poisoned (the connection should be dropped).
  [[nodiscard]] core::Status feed(std::string_view bytes);

  // Next complete line, stripped of the trailing '\n' (and a '\r' before it,
  // so netcat/socat in CRLF mode work). nullopt when no full line is
  // buffered yet.
  std::optional<std::string> next_line();

  bool poisoned() const { return poisoned_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // start of the first unconsumed byte
  std::size_t max_line_;
  bool poisoned_ = false;
};

}  // namespace emi::io
