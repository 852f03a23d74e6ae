// Crash-safe checkpoint/resume: a flow killed after any stage resumes to a
// bit-identical result; corrupt, truncated, torn, or mismatched checkpoints
// are rejected with a structured diagnostic - never a crash, never a
// half-loaded resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/io/design_format.hpp"
#include "src/io/wire.hpp"

namespace emi::flow {
namespace {

struct Guards {
  ~Guards() { core::FaultInjector::instance().disarm(); }
};

FlowOptions quick_options() {
  FlowOptions opt;
  opt.sweep.n_points = 30;
  return opt;
}

std::string temp_ckpt(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// Everything result-bearing in a FlowResult, flattened for equality checks.
std::string fingerprint(const BuckConverter& bc, const FlowResult& r) {
  std::ostringstream o;
  o.precision(17);
  o << "complete=" << r.complete << " peak=" << r.peak_improvement_db << "\n";
  for (double v : r.initial_prediction.level_dbuv) o << v << ",";
  o << "\n";
  for (double v : r.improved_prediction.level_dbuv) o << v << ",";
  o << "\n";
  for (const auto& p : r.simulated_pairs) o << p.first << "+" << p.second << " ";
  o << "\n";
  for (const auto& rule : r.rules) {
    o << rule.comp_a << "|" << rule.comp_b << "|" << rule.pemd.raw() << "\n";
  }
  if (!r.improved_layout.placements.empty()) {
    io::save_layout(o, bc.board, r.improved_layout);
  }
  for (const StageDiagnostic& d : r.diagnostics) {
    o << d.stage << "|" << d.status.to_string() << "|" << d.attempts << "|"
      << d.recovered << "\n";
  }
  return o.str();
}

// The acceptance scenario: kill the flow after each of the five stages in
// turn (stop_after_stage leaves the exact file state of a SIGKILL after the
// checkpoint write), resume, and require the resumed result bit-identical to
// an uninterrupted run.
TEST(FlowCheckpoint, ResumeAfterAnyStageIsBitIdentical) {
  BuckConverter ref_bc = make_buck_converter();
  const FlowResult reference =
      run_design_flow(ref_bc, layout_unfavorable(ref_bc), quick_options());
  ASSERT_TRUE(reference.complete);
  const std::string want = fingerprint(ref_bc, reference);

  for (std::size_t s = 0; s < kFlowStageCount; ++s) {
    const char* stage = flow_stage_name(static_cast<FlowStage>(s));
    const std::string ckpt = temp_ckpt("resume_stage.ckpt");
    std::remove(ckpt.c_str());

    FlowOptions opt = quick_options();
    opt.checkpoint_path = ckpt;
    opt.stop_after_stage = stage;
    BuckConverter bc1 = make_buck_converter();
    run_design_flow(bc1, layout_unfavorable(bc1), opt);

    FlowOptions resume_opt = quick_options();
    resume_opt.checkpoint_path = ckpt;
    BuckConverter bc2 = make_buck_converter();
    const FlowResult resumed =
        resume_design_flow(bc2, layout_unfavorable(bc2), resume_opt);
    EXPECT_TRUE(resumed.complete) << "resume after " << stage;
    EXPECT_EQ(want, fingerprint(bc2, resumed)) << "resume after " << stage;
    std::remove(ckpt.c_str());
  }
}

TEST(FlowCheckpoint, SerializeParseRoundTripPreservesEveryBit) {
  const std::string ckpt = temp_ckpt("roundtrip.ckpt");
  std::remove(ckpt.c_str());
  FlowOptions opt = quick_options();
  opt.checkpoint_path = ckpt;
  BuckConverter bc = make_buck_converter();
  const FlowResult res = run_design_flow(bc, layout_unfavorable(bc), opt);
  ASSERT_TRUE(res.complete);

  const core::Result<FlowCheckpoint> loaded = load_checkpoint_file(ckpt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const FlowCheckpoint& ck = loaded.value();
  EXPECT_EQ(ck.stages_done, (1u << kFlowStageCount) - 1u);  // all stages final
  EXPECT_EQ(ck.stages_ok, (1u << kFlowStageCount) - 1u);
  EXPECT_EQ(ck.result.initial_prediction.level_dbuv,
            res.initial_prediction.level_dbuv);  // exact bits, no decimal loss
  EXPECT_EQ(ck.result.improved_prediction.level_dbuv,
            res.improved_prediction.level_dbuv);

  const std::string text = serialize_checkpoint(ck);
  const core::Result<FlowCheckpoint> reparsed = parse_checkpoint(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(serialize_checkpoint(reparsed.value()), text);
  std::remove(ckpt.c_str());
}

TEST(FlowCheckpoint, MissingFileIsARejectedResume) {
  const std::string missing = temp_ckpt("never_written.ckpt");
  std::remove(missing.c_str());
  EXPECT_EQ(load_checkpoint_file(missing).status().code(), core::ErrorCode::kIoError);

  FlowOptions opt = quick_options();
  opt.checkpoint_path = missing;
  BuckConverter bc = make_buck_converter();
  const FlowResult res = resume_design_flow(bc, layout_unfavorable(bc), opt);
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics[0].stage, "flow.checkpoint");
  EXPECT_EQ(res.diagnostics[0].status.code(), core::ErrorCode::kIoError);
  EXPECT_TRUE(res.initial_prediction.level_dbuv.empty());  // nothing ran
}

TEST(FlowCheckpoint, EmptyPathIsACallerMistake) {
  FlowOptions opt = quick_options();
  BuckConverter bc = make_buck_converter();
  const FlowResult res = resume_design_flow(bc, layout_unfavorable(bc), opt);
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics[0].status.code(), core::ErrorCode::kInvalidArgument);
}

// Resuming against a different flow configuration must be refused - the
// header digest ties a checkpoint to its inputs.
TEST(FlowCheckpoint, ConfigurationMismatchIsRejected) {
  const std::string ckpt = temp_ckpt("digest.ckpt");
  std::remove(ckpt.c_str());
  FlowOptions opt = quick_options();
  opt.checkpoint_path = ckpt;
  opt.stop_after_stage = "sensitivity";
  BuckConverter bc1 = make_buck_converter();
  run_design_flow(bc1, layout_unfavorable(bc1), opt);

  FlowOptions other = quick_options();
  other.sweep.n_points = 40;  // different sweep grid => different digest
  other.checkpoint_path = ckpt;
  BuckConverter bc2 = make_buck_converter();
  const FlowResult res = resume_design_flow(bc2, layout_unfavorable(bc2), other);
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics[0].status.code(), core::ErrorCode::kFailedPrecondition);
  std::remove(ckpt.c_str());
}

// The ckpt fault site tears the payload mid-write (as a crash under a
// non-atomic writer would). The write itself reports success - exactly like
// a process that died before noticing - and the checksum rejects the torn
// file on load.
TEST(FlowCheckpoint, TornWriteIsCaughtByTheChecksumOnLoad) {
  Guards guards;
  const std::string good = temp_ckpt("torn_good.ckpt");
  std::remove(good.c_str());
  FlowOptions opt = quick_options();
  opt.checkpoint_path = good;
  opt.stop_after_stage = "initial_prediction";
  BuckConverter bc = make_buck_converter();
  run_design_flow(bc, layout_unfavorable(bc), opt);
  const core::Result<FlowCheckpoint> clean = load_checkpoint_file(good);
  ASSERT_TRUE(clean.ok());

  const std::string torn = temp_ckpt("torn_bad.ckpt");
  core::FaultInjector::instance().configure(core::FaultSite::kCkpt, 1.0, 11);
  EXPECT_TRUE(save_checkpoint_file(torn, clean.value()).ok());
  core::FaultInjector::instance().disarm();

  const core::Result<FlowCheckpoint> loaded = load_checkpoint_file(torn);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::ErrorCode::kParseError);
  std::remove(good.c_str());
  std::remove(torn.c_str());
}

TEST(FlowCheckpoint, ParseErrorsCarryLineNumbers) {
  EXPECT_EQ(parse_checkpoint("").status().code(), core::ErrorCode::kParseError);
  // No checksum line at all: reported as truncation, with the line count.
  const core::Status no_checksum = parse_checkpoint("NOTACKPT 1 0\n").status();
  EXPECT_EQ(no_checksum.code(), core::ErrorCode::kParseError);
  EXPECT_NE(no_checksum.to_string().find("line "), std::string::npos);
  EXPECT_NE(no_checksum.to_string().find("checksum"), std::string::npos);

  // A correctly checksummed file with a bad magic: rejected at line 1.
  std::string payload = "NOTACKPT 1 0000000000000000\n";
  char sum[32];
  std::snprintf(sum, sizeof sum, "checksum %016llx\n",
                static_cast<unsigned long long>(core::fault::fnv64(payload)));
  const core::Status bad_magic = parse_checkpoint(payload + sum).status();
  EXPECT_EQ(bad_magic.code(), core::ErrorCode::kParseError);
  EXPECT_NE(bad_magic.to_string().find("line 1"), std::string::npos);

  // A real checkpoint with one flipped byte in the middle: checksum mismatch.
  FlowCheckpoint ck;
  ck.set(FlowStage::kSensitivity, true);
  std::string text = serialize_checkpoint(ck);
  ASSERT_TRUE(parse_checkpoint(text).ok());
  std::string flipped = text;
  flipped[flipped.size() / 2] ^= 0x01;
  const core::Status st = parse_checkpoint(flipped).status();
  EXPECT_EQ(st.code(), core::ErrorCode::kParseError);
}

TEST(FlowCheckpoint, InconsistentStageBitmasksAreRejected) {
  FlowCheckpoint ck;
  ck.stages_ok = 0x2;  // ok bit for a stage that is not done
  const std::string text = serialize_checkpoint(ck);
  EXPECT_EQ(parse_checkpoint(text).status().code(), core::ErrorCode::kParseError);
}

// Integer fields parse strictly: a sign is not a digit. A `stats` record
// carrying -1 under a valid checksum (so only the field parser can object)
// must be rejected, never stored as 2^64-1.
TEST(FlowCheckpoint, NegativeStatsCountIsRejected) {
  const std::string text = serialize_checkpoint(FlowCheckpoint{});
  std::string payload = text.substr(0, text.rfind("checksum "));
  const std::size_t stats = payload.find("\nstats 0 ");
  ASSERT_NE(stats, std::string::npos);
  payload.replace(stats + 7, 1, "-1");
  ASSERT_NE(payload.find("\nstats -1 "), std::string::npos);
  const core::Status st =
      parse_checkpoint(payload + "checksum " + io::hex64(core::fault::fnv64(payload)) +
                       "\n")
          .status();
  EXPECT_EQ(st.code(), core::ErrorCode::kParseError);
  EXPECT_NE(st.to_string().find("malformed stats record"), std::string::npos);
}

// Corruption fuzz: truncations and bit flips at driver-chosen offsets over a
// real mid-flow checkpoint. Every mutation must either parse clean (the rare
// no-op flip) or come back as a structured error - never crash, never load a
// half-valid checkpoint silently.
TEST(FlowCheckpoint, FuzzedCorruptionNeverCrashesTheParser) {
  const std::string ckpt = temp_ckpt("fuzz.ckpt");
  std::remove(ckpt.c_str());
  FlowOptions opt = quick_options();
  opt.checkpoint_path = ckpt;
  opt.stop_after_stage = "placement";
  BuckConverter bc = make_buck_converter();
  run_design_flow(bc, layout_unfavorable(bc), opt);
  const core::Result<FlowCheckpoint> clean = load_checkpoint_file(ckpt);
  ASSERT_TRUE(clean.ok());
  const std::string text = serialize_checkpoint(clean.value());
  ASSERT_GT(text.size(), 100u);

  std::size_t rejected = 0;
  for (std::uint32_t seed = 0; seed < 600; ++seed) {
    std::mt19937 rng(seed);
    std::string mutated = text;
    if (seed % 2 == 0) {
      mutated.resize(rng() % mutated.size());  // truncation (possibly empty)
    } else {
      const std::size_t pos = rng() % mutated.size();
      mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                        (1u << (rng() % 8)));
    }
    const core::Result<FlowCheckpoint> r = parse_checkpoint(mutated);
    if (!r.ok()) {
      ++rejected;
      EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError) << "seed " << seed;
    }
  }
  // The checksum catches essentially everything; a handful of flips may
  // land in a diag message and survive (the checksum still re-validates, so
  // only same-checksum mutations could pass - none in practice).
  EXPECT_GT(rejected, 590u);

  // A sample of the corrupt files must also be safe end to end: resume
  // rejects them with a diagnostic, and nothing runs.
  const std::string bad = temp_ckpt("fuzz_bad.ckpt");
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed * 97 + 1);
    std::string mutated = text;
    mutated.resize(rng() % mutated.size());
    {
      std::FILE* f = std::fopen(bad.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      if (!mutated.empty()) std::fwrite(mutated.data(), 1, mutated.size(), f);
      std::fclose(f);
    }
    FlowOptions ropt = quick_options();
    ropt.checkpoint_path = bad;
    BuckConverter rbc = make_buck_converter();
    const FlowResult res = resume_design_flow(rbc, layout_unfavorable(rbc), ropt);
    EXPECT_FALSE(res.complete) << "seed " << seed;
    ASSERT_EQ(res.diagnostics.size(), 1u) << "seed " << seed;
    EXPECT_EQ(res.diagnostics[0].stage, "flow.checkpoint");
  }
  std::remove(bad.c_str());
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace emi::flow
