#include "src/flow/checkpoint.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/io/atomic_writer.hpp"
#include "src/io/wire.hpp"

namespace emi::flow {

namespace {

// Allocation guard for count fields in corrupt-but-plausible files; real
// checkpoints are far below this.
constexpr std::uint64_t kMaxCount = 1u << 20;

const char* const kStageNames[kFlowStageCount] = {
    "sensitivity", "initial_prediction", "rule_derivation", "placement",
    "verification"};

using io::hex64;
using io::parse_u64;

// Exact-bits double round trip: 16 hex digits of the IEEE-754 pattern.
std::string dbits(double v) { return hex64(std::bit_cast<std::uint64_t>(v)); }

// Status messages are single-line by construction; flatten defensively so a
// stray newline can never break the line-oriented format.
std::string one_line(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

void put_spectrum(std::ostream& out, const char* tag,
                  const emc::EmissionSpectrum& s) {
  out << "spectrum " << tag << ' ' << s.freqs_hz.size() << '\n';
  for (std::size_t i = 0; i < s.freqs_hz.size(); ++i) {
    out << "pt " << dbits(s.freqs_hz[i]) << ' ' << dbits(s.level_dbuv[i]) << '\n';
  }
}

// ---- parsing ---------------------------------------------------------------

core::Status parse_error(std::size_t line_no, const std::string& msg) {
  return core::Status(core::ErrorCode::kParseError, "flow.checkpoint",
                      "line " + std::to_string(line_no) + ": " + msg);
}

// Sequential line cursor; every failure carries the 1-based line number.
class Reader {
 public:
  explicit Reader(const std::string& payload) {
    std::istringstream ss(payload);
    std::string line;
    while (std::getline(ss, line)) lines_.push_back(line);
  }

  std::size_t line_no() const { return i_ + 1; }
  bool at_end() const { return i_ >= lines_.size(); }

  // Next line split into whitespace tokens; `min_tokens` validated. The raw
  // line is kept for trailing free-text fields (diag messages).
  core::Status next(const char* what, std::size_t min_tokens,
                    std::vector<std::string>& tokens, std::string* raw = nullptr) {
    if (at_end()) {
      return parse_error(line_no(), std::string("unexpected end of file, expected ") + what);
    }
    const std::string& line = lines_[i_++];
    if (raw != nullptr) *raw = line;
    tokens.clear();
    std::istringstream ss(line);
    std::string t;
    while (ss >> t) tokens.push_back(t);
    if (tokens.size() < min_tokens || tokens.empty() || tokens[0] != what) {
      return parse_error(line_no() - 1, std::string("malformed '") + what + "' record");
    }
    return core::Status();
  }

 private:
  std::vector<std::string> lines_;
  std::size_t i_ = 0;
};

bool parse_double_bits(const std::string& s, double& out) {
  std::uint64_t bits = 0;
  if (s.size() != 16 || !parse_u64(s, bits, 16)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

core::Status parse_count(const Reader& r, const std::string& s, std::uint64_t& out) {
  if (!parse_u64(s, out) || out > kMaxCount) {
    return parse_error(r.line_no() - 1, "count field out of range: " + s);
  }
  return core::Status();
}

core::Status parse_spectrum(Reader& r, const char* tag, emc::EmissionSpectrum& s) {
  std::vector<std::string> t;
  if (core::Status st = r.next("spectrum", 3, t); !st.ok()) return st;
  if (t[1] != tag) {
    return parse_error(r.line_no() - 1,
                       std::string("expected spectrum '") + tag + "', got '" + t[1] + "'");
  }
  std::uint64_t n = 0;
  if (core::Status st = parse_count(r, t[2], n); !st.ok()) return st;
  s.freqs_hz.resize(n);
  s.level_dbuv.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("pt", 3, t); !st.ok()) return st;
    if (!parse_double_bits(t[1], s.freqs_hz[i]) ||
        !parse_double_bits(t[2], s.level_dbuv[i])) {
      return parse_error(r.line_no() - 1, "malformed spectrum point");
    }
  }
  return core::Status();
}

}  // namespace

const char* flow_stage_name(FlowStage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}

std::optional<FlowStage> flow_stage_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFlowStageCount; ++i) {
    if (name == kStageNames[i]) return static_cast<FlowStage>(i);
  }
  return std::nullopt;
}

std::uint64_t flow_context_digest(const BuckConverter& bc,
                                  const place::Layout& initial_layout,
                                  const FlowOptions& opt) {
  std::ostringstream ss;
  ss << "emickpt-context-v1\n";
  std::vector<std::string> candidates;
  for (const auto& [l, mi] : bc.inductor_model) candidates.push_back(l);
  std::sort(candidates.begin(), candidates.end());
  for (const std::string& c : candidates) ss << "cand " << c << '\n';
  for (const place::Placement& p : initial_layout.placements) {
    ss << "pl " << dbits(p.position.x) << ' ' << dbits(p.position.y) << ' '
       << dbits(p.rot_deg) << ' ' << p.board << ' ' << (p.placed ? 1 : 0) << '\n';
  }
  ss << "quad " << opt.quadrature.order << ' ' << opt.quadrature.subdivisions << '\n';
  // The pair kernel: Gauss-Legendre outer samples with the inner line
  // integral in closed form. Stage outputs of builds with the product-rule
  // kernel differ within its quadrature error; resumed here they would give
  // a result neither build produces uninterrupted, so their checkpoints are
  // refused.
  ss << "kern analytic-inner\n";
  ss << "sweep " << dbits(opt.sweep.f_min_hz) << ' ' << dbits(opt.sweep.f_max_hz)
     << ' ' << opt.sweep.n_points << '\n';
  // Sweep acceleration changes computed spectra (interpolated / coupling-
  // model-filled points), so its configuration joins the context - but only
  // when it is enabled, keeping the default-options digest free of it.
  if (opt.sweep_accel.enabled()) {
    ss << "swp " << (opt.sweep_accel.adaptive ? 1 : 0) << ' '
       << dbits(opt.sweep_accel.tol_db) << ' ' << opt.sweep_accel.coarse_points << ' '
       << (opt.sweep_accel.surrogate ? 1 : 0) << ' ' << dbits(opt.sweep_accel.gate_db)
       << '\n';
  }
  ss << "thr " << dbits(opt.sensitivity_threshold_db) << ' ' << dbits(opt.k_threshold)
     << ' ' << dbits(opt.k_min) << ' ' << opt.cispr_class << ' ' << opt.stage_attempts
     << '\n';
  const place::PlacerOptions& pl = opt.placement.placer;
  ss << "placer " << dbits(pl.w_netlength) << ' ' << dbits(pl.w_group) << ' '
     << dbits(pl.w_pack) << ' ' << dbits(pl.grid_step_mm) << ' '
     << dbits(pl.refine_factor) << ' ' << pl.max_refines << ' '
     << (pl.try_all_rotations ? 1 : 0) << ' '
     << (opt.placement.run_partitioning ? 1 : 0) << '\n';
  return core::fault::fnv64(ss.str());
}

namespace {

// The result sections of the checkpoint ("complete" through "diags"), shared
// by serialize_checkpoint and result_fingerprint so the fingerprint is taken
// over exactly the bytes a checkpoint would persist.
void put_result_body(std::ostream& out, const FlowResult& r) {
  out << "complete " << (r.complete ? 1 : 0) << '\n';
  out << "saved " << r.field_solves_saved << '\n';

  out << "ranking " << r.ranking.size() << '\n';
  for (const emc::CouplingSensitivity& s : r.ranking) {
    out << "rank " << s.inductor_a << ' ' << s.inductor_b << ' '
        << dbits(s.max_delta_db) << ' ' << dbits(s.mean_delta_db) << '\n';
  }
  out << "pairs " << r.simulated_pairs.size() << '\n';
  for (const auto& [a, b] : r.simulated_pairs) out << "pair " << a << ' ' << b << '\n';

  put_spectrum(out, "initial", r.initial_prediction);
  put_spectrum(out, "initial_nc", r.initial_no_coupling);
  put_spectrum(out, "improved", r.improved_prediction);

  out << "rules " << r.rules.size() << '\n';
  for (const emc::MinDistanceRule& rule : r.rules) {
    out << "rule " << rule.comp_a << ' ' << rule.comp_b << ' ' << dbits(rule.pemd.raw())
        << ' ' << dbits(rule.k_threshold) << '\n';
  }

  out << "layout " << r.improved_layout.placements.size() << '\n';
  for (const place::Placement& p : r.improved_layout.placements) {
    out << "pl " << dbits(p.position.x) << ' ' << dbits(p.position.y) << ' '
        << dbits(p.rot_deg) << ' ' << p.board << ' ' << (p.placed ? 1 : 0) << '\n';
  }
  const place::PlaceStats& st = r.place_stats;
  out << "stats " << st.placed << ' ' << st.failed << ' ' << st.candidates_evaluated
      << ' ' << dbits(st.rotation_emd_before_mm) << ' '
      << dbits(st.rotation_emd_after_mm) << ' ' << st.cut_nets << '\n';
  out << "sfails " << st.failed_components.size() << '\n';
  for (const std::string& name : st.failed_components) out << "sfail " << name << '\n';

  out << "diags " << r.diagnostics.size() << '\n';
  for (const StageDiagnostic& d : r.diagnostics) {
    out << "diag " << d.attempts << ' ' << (d.recovered ? 1 : 0) << ' '
        << static_cast<unsigned>(d.status.code()) << ' ' << d.stage << ' '
        << (d.status.stage().empty() ? "-" : d.status.stage()) << ' '
        << one_line(d.status.message()) << '\n';
  }
}

}  // namespace

std::string serialize_checkpoint(const FlowCheckpoint& ck) {
  std::ostringstream out;
  out << kCheckpointMagic << ' ' << hex64(ck.context_digest) << '\n';
  out << "stages " << std::hex << ck.stages_done << ' ' << ck.stages_ok << std::dec
      << '\n';
  put_result_body(out, ck.result);
  std::string payload = out.str();
  payload += "checksum " + hex64(core::fault::fnv64(payload)) + '\n';
  return payload;
}

std::uint64_t result_fingerprint(const FlowResult& r) {
  std::ostringstream out;
  put_result_body(out, r);
  return core::fault::fnv64(out.str());
}

core::Result<FlowCheckpoint> parse_checkpoint(const std::string& text) {
  if (text.empty()) return parse_error(1, "empty checkpoint");

  // Locate and validate the trailing checksum before believing anything.
  const std::size_t pos = text.rfind("checksum ");
  if (pos == std::string::npos || (pos != 0 && text[pos - 1] != '\n')) {
    const std::size_t last_line =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
    return parse_error(last_line, "missing checksum line (truncated file?)");
  }
  const std::size_t payload_lines =
      static_cast<std::size_t>(std::count(text.begin(), text.begin() +
                                                            static_cast<std::ptrdiff_t>(pos),
                                          '\n'));
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

  Reader r(payload);
  FlowCheckpoint ck;
  FlowResult& res = ck.result;
  std::vector<std::string> t;

  if (core::Status st = r.next("EMICKPT", 3, t); !st.ok()) return st;
  if (t[1] != "1") return parse_error(r.line_no() - 1, "unsupported version " + t[1]);
  if (!parse_u64(t[2], ck.context_digest, 16)) {
    return parse_error(r.line_no() - 1, "malformed context digest");
  }

  if (core::Status st = r.next("stages", 3, t); !st.ok()) return st;
  std::uint64_t done = 0, okbits = 0;
  if (!parse_u64(t[1], done, 16) || !parse_u64(t[2], okbits, 16) ||
      done >= (1u << kFlowStageCount) || (okbits & ~done) != 0) {
    return parse_error(r.line_no() - 1, "malformed stage bitmasks");
  }
  ck.stages_done = static_cast<std::uint32_t>(done);
  ck.stages_ok = static_cast<std::uint32_t>(okbits);

  if (core::Status st = r.next("complete", 2, t); !st.ok()) return st;
  if (t[1] != "0" && t[1] != "1") {
    return parse_error(r.line_no() - 1, "malformed complete flag");
  }
  res.complete = t[1] == "1";

  if (core::Status st = r.next("saved", 2, t); !st.ok()) return st;
  std::uint64_t n = 0;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.field_solves_saved = n;

  if (core::Status st = r.next("ranking", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.ranking.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("rank", 5, t); !st.ok()) return st;
    emc::CouplingSensitivity& s = res.ranking[i];
    s.inductor_a = t[1];
    s.inductor_b = t[2];
    if (!parse_double_bits(t[3], s.max_delta_db) ||
        !parse_double_bits(t[4], s.mean_delta_db)) {
      return parse_error(r.line_no() - 1, "malformed ranking entry");
    }
  }

  if (core::Status st = r.next("pairs", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.simulated_pairs.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("pair", 3, t); !st.ok()) return st;
    res.simulated_pairs[i] = {t[1], t[2]};
  }

  if (core::Status st = parse_spectrum(r, "initial", res.initial_prediction); !st.ok())
    return st;
  if (core::Status st = parse_spectrum(r, "initial_nc", res.initial_no_coupling);
      !st.ok())
    return st;
  if (core::Status st = parse_spectrum(r, "improved", res.improved_prediction);
      !st.ok())
    return st;

  if (core::Status st = r.next("rules", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.rules.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("rule", 5, t); !st.ok()) return st;
    emc::MinDistanceRule& rule = res.rules[i];
    rule.comp_a = t[1];
    rule.comp_b = t[2];
    double pemd = 0.0;
    if (!parse_double_bits(t[3], pemd) || !parse_double_bits(t[4], rule.k_threshold)) {
      return parse_error(r.line_no() - 1, "malformed rule entry");
    }
    rule.pemd = emc::Millimeters{pemd};
  }

  if (core::Status st = r.next("layout", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.improved_layout.placements.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("pl", 6, t); !st.ok()) return st;
    place::Placement& p = res.improved_layout.placements[i];
    std::uint64_t board = 0;
    if (!parse_double_bits(t[1], p.position.x) || !parse_double_bits(t[2], p.position.y) ||
        !parse_double_bits(t[3], p.rot_deg) ||
        !parse_u64(t[4][0] == '-' ? t[4].substr(1) : t[4], board) ||
        (t[5] != "0" && t[5] != "1")) {
      return parse_error(r.line_no() - 1, "malformed placement entry");
    }
    p.board = static_cast<int>(board);
    if (t[4][0] == '-') p.board = -p.board;
    p.placed = t[5] == "1";
  }

  if (core::Status st = r.next("stats", 7, t); !st.ok()) return st;
  {
    place::PlaceStats& s = res.place_stats;
    std::uint64_t placed = 0, failed = 0, cands = 0, cut = 0;
    if (!parse_u64(t[1], placed) || !parse_u64(t[2], failed) ||
        !parse_u64(t[3], cands) || !parse_double_bits(t[4], s.rotation_emd_before_mm) ||
        !parse_double_bits(t[5], s.rotation_emd_after_mm) || !parse_u64(t[6], cut)) {
      return parse_error(r.line_no() - 1, "malformed stats record");
    }
    s.placed = placed;
    s.failed = failed;
    s.candidates_evaluated = cands;
    s.cut_nets = cut;
  }
  if (core::Status st = r.next("sfails", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.place_stats.failed_components.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("sfail", 2, t); !st.ok()) return st;
    res.place_stats.failed_components[i] = t[1];
  }

  if (core::Status st = r.next("diags", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.diagnostics.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string raw;
    if (core::Status st = r.next("diag", 6, t, &raw); !st.ok()) return st;
    StageDiagnostic& d = res.diagnostics[i];
    std::uint64_t attempts = 0, code = 0;
    if (!parse_u64(t[1], attempts) || (t[2] != "0" && t[2] != "1") ||
        !parse_u64(t[3], code) ||
        code > static_cast<std::uint64_t>(core::ErrorCode::kCancelled)) {
      return parse_error(r.line_no() - 1, "malformed diagnostic entry");
    }
    d.attempts = static_cast<int>(attempts);
    d.recovered = t[2] == "1";
    d.stage = t[4];
    const std::string status_stage = t[5] == "-" ? std::string() : t[5];
    // Message = the raw line after the first 6 tokens (may be empty, may
    // contain spaces).
    std::size_t consumed = 0;
    for (int tok = 0; tok < 6; ++tok) {
      while (consumed < raw.size() && std::isspace(static_cast<unsigned char>(raw[consumed])))
        ++consumed;
      while (consumed < raw.size() && !std::isspace(static_cast<unsigned char>(raw[consumed])))
        ++consumed;
    }
    if (consumed < raw.size()) ++consumed;  // the single separating space
    d.status = core::Status(static_cast<core::ErrorCode>(code), status_stage,
                            raw.substr(consumed));
  }

  if (!r.at_end()) return parse_error(r.line_no(), "trailing data after diagnostics");
  return ck;
}

core::Status save_checkpoint_file(const std::string& path, const FlowCheckpoint& ck) {
  std::string content = serialize_checkpoint(ck);
  // Torn-write injection: truncate the payload mid-file before the (still
  // atomic) commit - the on-disk file then looks exactly like a crash inside
  // a non-atomic writer. The load-side checksum must reject it; the write
  // side reports success, as a genuinely crashed process would.
  if (core::fault::should_fire(core::FaultSite::kCkpt, core::fault::fnv64(content))) {
    content.resize(content.size() / 2);
  }
  io::AtomicFileWriter w(path);
  return w.commit_content(content);
}

core::Result<FlowCheckpoint> load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return core::Status(core::ErrorCode::kIoError, "flow.checkpoint",
                        "cannot open checkpoint: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return core::Status(core::ErrorCode::kIoError, "flow.checkpoint",
                        "cannot read checkpoint: " + path);
  }
  return parse_checkpoint(ss.str());
}

}  // namespace emi::flow
