// det_lint: repo-specific determinism lint. The whole pipeline promises
// bit-identical results at any thread count, executor count and platform
// (DESIGN.md §6/§11); that contract dies quietly when code reaches for an
// ambient source of nondeterminism. This lint scans src/ (.hpp and .cpp,
// comments and strings stripped) for the three hazard classes that have
// actually bitten similar codebases:
//
//   1. nondeterministic-source calls: std::rand/srand, std::random_device,
//      time(), clock(), std::chrono::system_clock. (steady_clock is fine -
//      it feeds Deadline/Profile, which affect *when*, never *what*.)
//   2. iteration over std::unordered_map/unordered_set: hash-order is a
//      library detail, so any range-for / .begin() walk over one can feed
//      accumulation order or output order. Safe uses (results sorted
//      immediately after collection) carry a reasoned allowlist entry.
//   3. pointer-value ordering: std::hash/std::less over pointer types and
//      reinterpret_cast to uintptr_t order results by allocation addresses,
//      which vary run to run under ASLR.
//
// Usage:
//   det_lint <root-dir> <allowlist-file>   scan all .hpp/.cpp under root
//   det_lint --selftest <fixture>          exit 0 iff the fixture DOES
//                                          produce violations of all three
//                                          classes (guards the lint itself)
//
// Allowlist: `path:token` entries with a `#` reason, shared format with
// unit_lint (tools/lint_common.hpp); stale entries fail.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint_common.hpp"

namespace {

namespace fs = std::filesystem;

struct BannedCall {
  const char* pattern;  // applied per line of comment-stripped text
  const char* token;
  const char* why;
};

// `[^\w:.>]` guards reject qualified/member lookalikes: steady_clock::now,
// deadline.time_left(), obj->clock() never match.
const BannedCall kBanned[] = {
    {R"((?:^|[^\w:])(?:std::)?rand\s*\()", "rand",
     "std::rand draws from hidden global state"},
    {R"((?:^|[^\w:])(?:std::)?srand\s*\()", "srand",
     "seeding the global RNG is ambient state"},
    {R"(\brandom_device\b)", "random_device",
     "std::random_device is nondeterministic by design; use numeric/rng.hpp"},
    {R"((?:^|[^\w:.>])time\s*\()", "time",
     "wall-clock time changes run to run"},
    {R"((?:^|[^\w:.>])clock\s*\()", "clock",
     "CPU clock readings change run to run"},
    {R"(\bsystem_clock\b)", "system_clock",
     "system_clock is wall time; use steady_clock for durations"},
};

struct PointerOrder {
  const char* pattern;
  const char* token;
};

const PointerOrder kPointerOrder[] = {
    {R"(std::hash\s*<[^<>]*\*\s*>)", "hash_pointer"},
    {R"(std::less\s*<[^<>]*\*\s*>)", "less_pointer"},
    {R"(reinterpret_cast\s*<\s*(?:std::)?u?intptr_t)", "uintptr_cast"},
};

// Compiling a std::regex costs far more than matching one line with it, so
// the fixed tables are compiled once per process (same order as the table).
template <typename Table>
std::vector<std::regex> compile_patterns(const Table& table) {
  std::vector<std::regex> out;
  for (const auto& entry : table) out.emplace_back(entry.pattern);
  return out;
}

// Identifiers declared with an unordered container type anywhere in the
// file (members, locals, parameters; declarations may span lines).
std::set<std::string> unordered_names(const std::string& text) {
  std::set<std::string> names;
  static const std::regex decl(
      R"(unordered_(?:map|set)\s*<[^;{}()]*?>\s+(\w+))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), decl);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

void scan_file(const fs::path& file, const std::string& rel,
               std::vector<lint::Violation>& out) {
  const std::string text = lint::strip_comments(lint::read_file(file));
  std::set<std::string> unordered = unordered_names(text);
  // Members are declared in the header but iterated in the source: fold the
  // sibling .hpp's unordered names into a .cpp scan so `for (x : member_)`
  // is still seen. (Not a symbol table - same-stem pairing covers the repo's
  // layout, where every foo.cpp implements foo.hpp.)
  if (file.extension() == ".cpp") {
    fs::path sibling = file;
    sibling.replace_extension(".hpp");
    if (fs::exists(sibling)) {
      unordered.merge(
          unordered_names(lint::strip_comments(lint::read_file(sibling))));
    }
  }

  static const std::vector<std::regex> banned = compile_patterns(kBanned);
  static const std::vector<std::regex> pointer_order =
      compile_patterns(kPointerOrder);
  // The per-name range-for patterns, once per file.
  std::vector<std::pair<std::string, std::regex>> walks;
  for (const std::string& name : unordered) {
    walks.emplace_back(name,
                       std::regex(R"(for\s*\([^;)]*:\s*[^)]*\b)" + name + R"(\b)"));
  }

  std::size_t line_no = 1;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);

    for (std::size_t i = 0; i < banned.size(); ++i) {
      if (std::regex_search(line, banned[i])) {
        out.push_back({rel, line_no, kBanned[i].token, kBanned[i].why});
      }
    }
    for (std::size_t i = 0; i < pointer_order.size(); ++i) {
      if (std::regex_search(line, pointer_order[i])) {
        out.push_back({rel, line_no, kPointerOrder[i].token,
                       "pointer values order by allocation address"});
      }
    }
    // Range-for or iterator walk over an unordered container declared in
    // this file: hash order may feed accumulation / output order.
    for (const auto& [name, range_for_re] : walks) {
      const bool range_for = std::regex_search(line, range_for_re);
      const bool iter_walk =
          line.find(name + ".begin()") != std::string::npos ||
          line.find(name + ".cbegin()") != std::string::npos;
      if (range_for || iter_walk) {
        out.push_back({rel, line_no, name,
                       "iteration over unordered container '" + name +
                           "' is hash-ordered"});
      }
    }
    start = end + 1;
    ++line_no;
  }
}

int scan_tree(const fs::path& root, const fs::path& allowlist_file) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  std::vector<lint::Violation> violations;
  for (const fs::path& f : files) {
    scan_file(f, fs::relative(f, root).generic_string(), violations);
  }
  return lint::finish_scan(
      violations, allowlist_file, "det_lint",
      "%s:%zu: determinism hazard '%s' (%s); fix it or add '%s:%s' to the "
      "allowlist with a reason\n",
      files.size());
}

int selftest(const fs::path& fixture) {
  std::vector<lint::Violation> violations;
  scan_file(fixture, fixture.generic_string(), violations);
  // The fixture must trip every hazard class, or the lint has gone blind to
  // one of them.
  const bool has_banned = std::any_of(
      violations.begin(), violations.end(),
      [](const lint::Violation& v) { return v.token == "rand" || v.token == "random_device" || v.token == "time" || v.token == "system_clock"; });
  const bool has_unordered =
      std::any_of(violations.begin(), violations.end(),
                  [](const lint::Violation& v) { return v.why.find("hash-ordered") != std::string::npos; });
  const bool has_pointer =
      std::any_of(violations.begin(), violations.end(),
                  [](const lint::Violation& v) { return v.why.find("allocation address") != std::string::npos; });
  if (!has_banned || !has_unordered || !has_pointer) {
    std::fprintf(stderr,
                 "det_lint selftest FAILED: fixture %s missed a hazard class "
                 "(banned=%d unordered=%d pointer=%d) - the lint is blind\n",
                 fixture.generic_string().c_str(), has_banned ? 1 : 0,
                 has_unordered ? 1 : 0, has_pointer ? 1 : 0);
    return 1;
  }
  std::printf("det_lint selftest ok: fixture produced %zu violation(s) "
              "across all hazard classes\n",
              violations.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--selftest") {
    return selftest(argv[2]);
  }
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: det_lint <root-dir> <allowlist-file>\n"
                 "       det_lint --selftest <fixture>\n");
    return 2;
  }
  return scan_tree(argv[1], argv[2]);
}
