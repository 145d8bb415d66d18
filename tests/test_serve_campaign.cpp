// Tests of the whole-stack serving fault campaign: the deterministic
// tick stepper, the subsystem site registry, outcome classification (the
// NaN-never-masked regression), the tamper surfaces, and
// seed-reproducibility of whole campaigns.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "fault/serve_campaign/campaign.hpp"
#include "fault/serve_campaign/report.hpp"
#include "serve/load_driver.hpp"
#include "serve/stepper.hpp"

namespace flashabft::serve_campaign {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.sessions = 2;
  cfg.prompt_len = 4;
  cfg.max_new_tokens = 4;
  cfg.trials_per_cell = 6;
  cfg.seed = 99;
  return cfg;
}

serve::GenerationWork make_work(const CampaignConfig& cfg,
                                std::uint64_t salt) {
  serve::GenerationWork work;
  Rng rng(cfg.seed + salt);
  for (std::size_t t = 0; t < cfg.prompt_len; ++t) {
    work.prompt.push_back(
        std::size_t(rng.next_below(cfg.model.vocab_size)));
  }
  work.max_new_tokens = cfg.max_new_tokens;
  return work;
}

serve::StepperConfig stepper_config(const CampaignConfig& cfg) {
  serve::StepperConfig out;
  out.executor_options = cfg.executor_options;
  out.page_size = cfg.page_size;
  return out;
}

// The campaign's per-session "alarmed" observable: any guarded-op alarm,
// fallback, dirty checksum verify, or non-clean serve path.
bool session_alarmed(const serve::SteppedSession& s) {
  return s.counters.alarm_events > 0 || s.counters.fallback_ops > 0 ||
         !s.checksum_clean || s.path != serve::ServePath::kGuardedClean;
}

// --- Outcome classification -------------------------------------------

TEST(Classification, TwoByTwoPlusCrash) {
  EXPECT_EQ(classify_trial(true, true, true), TrialOutcome::kCrashHang);
  EXPECT_EQ(classify_trial(false, true, false),
            TrialOutcome::kDetectedCorrected);
  EXPECT_EQ(classify_trial(false, true, true),
            TrialOutcome::kDetectedUncorrected);
  EXPECT_EQ(classify_trial(false, false, false), TrialOutcome::kMasked);
  EXPECT_EQ(classify_trial(false, false, true), TrialOutcome::kSdc);
}

// Regression: a NaN/Inf-poisoned output must always count as divergence.
// The naive comparator |golden - candidate| > tol is false for NaN (every
// NaN comparison is false), which would classify a NaN-poisoned unalarmed
// trial as masked/benign instead of SDC.
TEST(Classification, NanDivergenceIsNeverMasked) {
  const std::vector<double> golden = {1.0, 2.0, 3.0};
  EXPECT_TRUE(logits_diverge(golden, {1.0, kNan, 3.0}));
  EXPECT_TRUE(logits_diverge(golden, {kInf, 2.0, 3.0}));
  EXPECT_TRUE(logits_diverge(golden, {1.0, 2.0, -kInf}));
  EXPECT_EQ(classify_trial(false, false,
                           logits_diverge(golden, {1.0, kNan, 3.0})),
            TrialOutcome::kSdc);
  // Alarmed NaN divergence is detected (uncorrected), never masked.
  EXPECT_EQ(classify_trial(false, true,
                           logits_diverge(golden, {1.0, kNan, 3.0})),
            TrialOutcome::kDetectedUncorrected);
}

TEST(Classification, FiniteToleranceAndEqualNonFinites) {
  const std::vector<double> golden = {1.0, -2.0};
  EXPECT_FALSE(logits_diverge(golden, {1.0 + 1e-12, -2.0}));
  EXPECT_TRUE(logits_diverge(golden, {1.01, -2.0}));
  EXPECT_TRUE(logits_diverge(golden, {1.0}));  // size mismatch.
  // Matching non-finites (golden itself poisoned) are not divergence.
  EXPECT_FALSE(logits_diverge({kNan, kInf}, {kNan, kInf}));
  EXPECT_TRUE(logits_diverge({kInf, 0.0}, {-kInf, 0.0}));
}

// --- Site registry -----------------------------------------------------

TEST(Sites, NamesRoundTrip) {
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    const Subsystem subsystem = Subsystem(s);
    const auto parsed = parse_subsystem(subsystem_name(subsystem));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, subsystem);
  }
  EXPECT_FALSE(parse_subsystem("bogus").has_value());
}

TEST(Sites, OpKindNamesRoundTrip) {
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    const auto parsed = parse_op_kind(op_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_op_kind("not_an_op").has_value());
}

TEST(Sites, DrawsAreSeedDeterministicAndPopulateOneSite) {
  const CampaignConfig cfg = small_config();
  const TransformerModel model(cfg.model, cfg.model_seed);
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    const Subsystem subsystem = Subsystem(s);
    Rng a(123), b(123);
    const TrialPlan pa = draw_trial_plan(subsystem, model, cfg.sessions,
                                         cfg.max_new_tokens, RecoveryPolicy{},
                                         a);
    const TrialPlan pb = draw_trial_plan(subsystem, model, cfg.sessions,
                                         cfg.max_new_tokens, RecoveryPolicy{},
                                         b);
    EXPECT_EQ(pa.session, pb.session);
    EXPECT_EQ(pa.step, pb.step);
    EXPECT_EQ(pa.magnitude, pb.magnitude);
    const int populated = int(pa.weight.has_value()) +
                          int(pa.fault.has_value()) +
                          int(pa.kv.has_value()) +
                          int(pa.tamper.has_value()) +
                          int(pa.checker_tolerance_scale != 1.0);
    EXPECT_EQ(populated, 1) << subsystem_name(subsystem);
  }
}

// --- The deterministic stepper -----------------------------------------

TEST(Stepper, CleanRunsAreDeterministic) {
  const CampaignConfig cfg = small_config();
  const TransformerModel model(cfg.model, cfg.model_seed);
  const std::vector<serve::GenerationWork> works = {make_work(cfg, 1),
                                                    make_work(cfg, 2)};
  const auto first = serve::run_stepped(model, works, stepper_config(cfg));
  const auto second = serve::run_stepped(model, works, stepper_config(cfg));
  ASSERT_EQ(first.size(), works.size());
  for (std::size_t i = 0; i < works.size(); ++i) {
    EXPECT_FALSE(first[i].failed) << first[i].error;
    EXPECT_TRUE(first[i].checksum_clean);
    EXPECT_EQ(first[i].tokens, second[i].tokens);
    EXPECT_EQ(first[i].final_logits, second[i].final_logits);
    EXPECT_EQ(first[i].tokens.size(), cfg.max_new_tokens);
  }
}

// PR 6 measured this exact fault as the stack's worst hole: an unprotected
// token flip was silent SDC. The sealed metadata record flips the outcome —
// the boundary verify catches the stale seal, repairs from the mirror, and
// the stream matches golden: detected + corrected.
TEST(Stepper, SessionTokenTamperIsDetectedAndRepaired) {
  const CampaignConfig cfg = small_config();
  const TransformerModel model(cfg.model, cfg.model_seed);
  const std::vector<serve::GenerationWork> clean = {make_work(cfg, 1)};
  std::vector<serve::GenerationWork> tampered = clean;
  serve::SessionTamper tamper;
  tamper.step = 2;
  tamper.target = serve::SessionTamper::Target::kGeneratedToken;
  tamper.index = 1;
  tamper.delta = 3;
  tampered[0].tampers.push_back(tamper);

  const auto golden = serve::run_stepped(model, clean, stepper_config(cfg));
  const auto faulty =
      serve::run_stepped(model, tampered, stepper_config(cfg));
  ASSERT_FALSE(faulty[0].failed) << faulty[0].error;
  EXPECT_TRUE(session_alarmed(faulty[0]));
  EXPECT_GT(faulty[0].counters.meta_verifies, 0u);
  EXPECT_EQ(faulty[0].tokens, golden[0].tokens);
  EXPECT_EQ(classify_trial(false, true, false),
            TrialOutcome::kDetectedCorrected);
  // A clean run pays the verifies but keeps a clean op stream.
  EXPECT_GT(golden[0].counters.meta_verifies, 0u);
  EXPECT_EQ(golden[0].counters.alarm_events, 0u);
}

TEST(Stepper, BudgetTamperShrinksAndTerminates) {
  const CampaignConfig cfg = small_config();
  const TransformerModel model(cfg.model, cfg.model_seed);
  std::vector<serve::GenerationWork> works = {make_work(cfg, 1)};
  serve::SessionTamper tamper;
  tamper.step = 1;
  tamper.target = serve::SessionTamper::Target::kMaxNewTokens;
  tamper.delta = 12345;
  works[0].tampers.push_back(tamper);
  const auto out = serve::run_stepped(model, works, stepper_config(cfg));
  ASSERT_FALSE(out[0].failed) << out[0].error;
  EXPECT_FALSE(out[0].hang);
  // The boundary verify repairs the shrunk budget from the mirror, so the
  // session runs its full original budget — and alarms.
  EXPECT_EQ(out[0].tokens.size(), cfg.max_new_tokens);
  EXPECT_TRUE(session_alarmed(out[0]));
}

TEST(Stepper, KvChecksumStateUpsetFalseAlarmsAndRecovers) {
  const CampaignConfig cfg = small_config();
  const TransformerModel model(cfg.model, cfg.model_seed);
  const std::vector<serve::GenerationWork> clean = {make_work(cfg, 1)};
  std::vector<serve::GenerationWork> faulty_works = clean;
  serve::KvCorruption c;
  c.step = 2;
  c.layer = 0;
  c.row = 1;
  c.col = 2;
  c.delta = 0.5;
  c.checksum_state = true;
  faulty_works[0].kv_corruptions.push_back(c);

  const auto golden = serve::run_stepped(model, clean, stepper_config(cfg));
  const auto faulty =
      serve::run_stepped(model, faulty_works, stepper_config(cfg));
  ASSERT_FALSE(faulty[0].failed) << faulty[0].error;
  // The shifted running sum raises a (false) alarm; restoration rebuilds
  // the state and the output matches golden: detected + corrected.
  EXPECT_TRUE(session_alarmed(faulty[0]));
  EXPECT_EQ(faulty[0].tokens, golden[0].tokens);
  EXPECT_FALSE(
      logits_diverge(golden[0].final_logits, faulty[0].final_logits));
}

TEST(Stepper, PageTableUpsetDetected) {
  const CampaignConfig cfg = small_config();
  const TransformerModel model(cfg.model, cfg.model_seed);
  const std::vector<serve::GenerationWork> clean = {make_work(cfg, 1)};
  std::vector<serve::GenerationWork> faulty_works = clean;
  serve::KvCorruption c;
  c.step = 2;
  c.layer = 1;
  c.row = 0;
  c.col = 5;
  c.page_table = true;
  faulty_works[0].kv_corruptions.push_back(c);

  const auto golden = serve::run_stepped(model, clean, stepper_config(cfg));
  const auto faulty =
      serve::run_stepped(model, faulty_works, stepper_config(cfg));
  ASSERT_FALSE(faulty[0].failed) << faulty[0].error;
  EXPECT_TRUE(session_alarmed(faulty[0]));
  EXPECT_EQ(faulty[0].tokens, golden[0].tokens);
}

// The campaign once measured a detection asymmetry here: guarded_linear
// recomputed input checksums from the live (corrupted) weights, so a
// post-construction projection upset was self-consistent and silent
// (13.3% cell coverage). guarded_linear now predicts against the owner's
// construction-time checksums, so the same upset alarms.
TEST(Stepper, WeightCorruptionDetected) {
  const CampaignConfig cfg = small_config();
  const std::vector<serve::GenerationWork> works = {make_work(cfg, 1)};
  WeightSite site;
  site.matrix = WeightSite::Matrix::kWq;
  site.layer = 0;
  site.row = 1;
  site.col = 2;
  site.delta = 0.75;

  TransformerModel faulty_model(cfg.model, cfg.model_seed);
  faulty_model.corrupt_weight(site);

  const auto out =
      serve::run_stepped(faulty_model, works, stepper_config(cfg));
  ASSERT_FALSE(out[0].failed) << out[0].error;
  EXPECT_TRUE(session_alarmed(out[0]));  // stale cached checksums.
}

// The PR 8 tentpole drill: S sessions share a template prefix, so the
// template's KV page is ONE physical page with ONE checksum and S readers.
// A single bit upset in it must alarm in EVERY reader (the heal-epoch
// mechanism: the first reader's restore heals the page and advances its
// epoch; every co-reader's next verify sees the epoch it acknowledged is
// stale) while the page is re-materialized exactly once.
TEST(Stepper, SharedPrefixCorruptionAlarmsEveryReaderAndHealsOnce) {
  CampaignConfig cfg = small_config();
  cfg.sessions = 3;
  cfg.prompt_len = 5;  // page_size 4: rows 0..3 shared, last token private.
  const TransformerModel model(cfg.model, cfg.model_seed);
  // Shared stem, distinct last token per session ("many users, one
  // template") — sessions 1 and 2 map the stem page session 0 published.
  Rng rng(cfg.seed);
  std::vector<std::size_t> stem;
  for (std::size_t t = 0; t + 1 < cfg.prompt_len; ++t) {
    stem.push_back(std::size_t(rng.next_below(cfg.model.vocab_size)));
  }
  std::vector<serve::GenerationWork> clean(cfg.sessions);
  for (std::size_t i = 0; i < cfg.sessions; ++i) {
    clean[i].prompt = stem;
    clean[i].prompt.push_back((7 * i + 1) % cfg.model.vocab_size);
    clean[i].max_new_tokens = cfg.max_new_tokens;
  }
  std::vector<serve::GenerationWork> faulty = clean;
  serve::KvCorruption c;
  c.step = 2;
  c.layer = 0;
  c.row = 1;
  c.col = 3;
  c.delta = 0.5;
  c.shared_prefix = true;  // row pinned into the shared template rows.
  faulty[1].kv_corruptions.push_back(c);

  const serve::StepperConfig scfg = stepper_config(cfg);
  serve::TelemetrySnapshot golden_telemetry, faulty_telemetry;
  const auto golden = serve::run_stepped(model, clean, scfg,
                                         &golden_telemetry);
  const auto out = serve::run_stepped(model, faulty, scfg,
                                      &faulty_telemetry);
  EXPECT_EQ(golden_telemetry.prefix_hits, 2u);  // sessions 1, 2 map the stem.
  EXPECT_EQ(golden_telemetry.shared_heals, 0u);
  std::size_t alarmed = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i].failed) << out[i].error;
    if (session_alarmed(out[i])) ++alarmed;
    // Detected AND corrected in every reader: the heal restored the page
    // from its checkpoint, so all token streams match golden.
    EXPECT_EQ(out[i].tokens, golden[i].tokens) << "session " << i;
  }
  EXPECT_EQ(alarmed, cfg.sessions);           // every reader alarmed...
  EXPECT_EQ(faulty_telemetry.shared_heals, 1u);  // ...one page heal total.
}

// --- Whole campaigns ---------------------------------------------------

TEST(Campaign, IdenticalSeedsReproduceTrialByTrial) {
  const CampaignConfig cfg = small_config();
  const CampaignResult a = run_campaign(cfg);
  const CampaignResult b = run_campaign(cfg);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.cells.size(), kSubsystemCount);  // one cell per subsystem.
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].trial_outcomes, b.cells[i].trial_outcomes)
        << subsystem_name(a.cells[i].subsystem);
    EXPECT_EQ(a.cells[i].outcomes, b.cells[i].outcomes);
  }
  CampaignConfig other = cfg;
  other.seed = cfg.seed + 1;
  const CampaignResult c = run_campaign(other);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    any_difference |= a.cells[i].trial_outcomes != c.cells[i].trial_outcomes;
  }
  EXPECT_TRUE(any_difference);  // the seed actually steers the draws.
}

TEST(Campaign, EveryTrialClassifiedAndJsonCarriesAllCells) {
  const CampaignConfig cfg = small_config();
  const CampaignResult result = run_campaign(cfg);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.trials, cfg.trials_per_cell);
    std::size_t total = 0;
    for (const std::size_t count : cell.outcomes) total += count;
    EXPECT_EQ(total, cell.trials);
    EXPECT_EQ(cell.trial_outcomes.size(), cell.trials);
  }
  const std::string json = campaign_report_json(result);
  EXPECT_NE(json.find("\"bench\": \"fault_campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"trials_per_cell\""), std::string::npos);
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    EXPECT_NE(json.find(subsystem_name(Subsystem(s))), std::string::npos);
  }
}

// --- Load-driver draw extensions (one reproducible stream) -------------

TEST(LoadDriverDraws, SessionTamperAndSiteFlagsAreDeterministic) {
  Rng a(77), b(77);
  const serve::SessionTamper ta = serve::draw_session_tamper(6, a);
  const serve::SessionTamper tb = serve::draw_session_tamper(6, b);
  EXPECT_EQ(ta.step, tb.step);
  EXPECT_EQ(int(ta.target), int(tb.target));
  EXPECT_EQ(ta.index, tb.index);
  EXPECT_EQ(ta.delta, tb.delta);
  EXPECT_GE(ta.delta, 1u);

  TransformerConfig model;
  model.num_layers = 2;
  model.num_heads = 2;
  model.head_dim = 8;
  const serve::KvCorruption kv = serve::draw_kv_corruption(
      model, 6, 0.25, a, /*page_table=*/true, /*checksum_state=*/true);
  EXPECT_TRUE(kv.page_table);
  EXPECT_TRUE(kv.checksum_state);
  EXPECT_GE(kv.step, 1u);
  const serve::KvCorruption plain = serve::draw_kv_corruption(model, 6,
                                                              0.25, a);
  EXPECT_FALSE(plain.page_table);
  EXPECT_FALSE(plain.checksum_state);
}

}  // namespace
}  // namespace flashabft::serve_campaign
