// Control-plane integrity + scrubber tests: GuardedRecord sealing/repair,
// guarded_meta_verify through the executor ladder, selective DMR of the
// checksum-free glue, the Scrubber slicing engine (budgeted cursor over a
// walk, counters), inline scrubbing on the threaded server (run under TSan
// in CI) and its idle behaviour, and tick-for-tick determinism of
// latent-fault scrubbing under the deterministic stepper.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/kv_pool.hpp"
#include "core/meta_guard.hpp"
#include "scrub/scrubber.hpp"
#include "serve/server.hpp"
#include "serve/stepper.hpp"

namespace flashabft {
namespace {

// --- GuardedRecord sealing ---------------------------------------------

SessionMeta sample_meta() {
  SessionMeta meta;
  meta.prompt = {5, 40, 2, 19};
  meta.max_new_tokens = 6;
  meta.tokens = {7, 3};
  meta.steps_done = 2;
  return meta;
}

TEST(GuardedRecord, MutateReSealsAndRawLeavesSealStale) {
  GuardedRecord<SessionMeta> record(sample_meta());
  EXPECT_TRUE(record.verify());

  record.mutate([](SessionMeta& meta) { meta.tokens.push_back(11); });
  EXPECT_TRUE(record.verify());
  EXPECT_EQ(record.value().tokens.size(), 3u);

  // A raw write models a memory upset: the seal goes stale even though the
  // new value is semantically plausible.
  record.raw().tokens.back() = 12;
  EXPECT_FALSE(record.verify());
  EXPECT_TRUE(record.mirror_intact());

  ASSERT_TRUE(record.repair());
  EXPECT_TRUE(record.verify());
  EXPECT_EQ(record.value().tokens.back(), 11u);  // mirror's copy restored.
}

TEST(GuardedRecord, BudgetShrinkIsDetectedContentIndependently) {
  GuardedRecord<SessionMeta> record(sample_meta());
  record.raw().max_new_tokens = 1;  // plausible value, stale seal.
  EXPECT_FALSE(record.verify());
  ASSERT_TRUE(record.repair());
  EXPECT_EQ(record.value().max_new_tokens, 6u);
}

// --- guarded_meta_verify through the executor ladder -------------------

TEST(MetaVerify, CleanVerifyPassesWithoutAlarm) {
  GuardedRecord<SessionMeta> record(sample_meta());
  const GuardedExecutor executor{GuardedExecutor::Options{}};
  LayerReport report;
  EXPECT_TRUE(guarded_meta_verify(record, /*index=*/0, executor, report));
  ASSERT_EQ(report.ops.size(), 1u);
  EXPECT_EQ(report.ops.front().kind, OpKind::kControlPlane);
  EXPECT_EQ(report.ops.front().verdict, CheckVerdict::kPass);
  EXPECT_EQ(report.ops.front().alarms, 0u);
}

TEST(MetaVerify, TamperAlarmsRepairsAndRecovers) {
  GuardedRecord<SessionMeta> record(sample_meta());
  record.raw().tokens[0] = 63;  // fed-back token flip, seal left stale.

  const GuardedExecutor executor{GuardedExecutor::Options{}};
  LayerReport report;
  EXPECT_TRUE(guarded_meta_verify(record, /*index=*/0, executor, report));
  ASSERT_EQ(report.ops.size(), 1u);
  const OpReport& op = report.ops.front();
  EXPECT_GT(op.alarms, 0u);
  EXPECT_EQ(op.recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(op.verdict, CheckVerdict::kPass);  // accepted state is clean.
  EXPECT_EQ(record.value().tokens[0], 7u);     // healed from the mirror.
  EXPECT_TRUE(record.verify());
}

TEST(MetaVerify, ToleranceCorruptedCheckerCannotBlindTheSeal) {
  // The seal compares exactly through self_verdict; a blinded float
  // comparator (huge tolerances — the checksum_state campaign cell) must
  // not mask a stale seal.
  GuardedRecord<SessionMeta> record(sample_meta());
  record.raw().steps_done = 99;

  GuardedExecutor::Options options;
  options.checker.abs_tolerance = 1e18;
  options.checker.rel_tolerance = 1e18;
  const GuardedExecutor executor{options};
  LayerReport report;
  EXPECT_TRUE(guarded_meta_verify(record, /*index=*/0, executor, report));
  EXPECT_GT(report.ops.front().alarms, 0u);
  EXPECT_EQ(record.value().steps_done, 2u);
}

// --- Selective DMR of the glue -----------------------------------------

TEST(DmrGuard, OffRunsExactlyOnceAndCountsNothing) {
  GuardedExecutor::Options options;
  options.dmr_glue = false;
  const GuardedExecutor executor{options};
  LayerReport report;
  int calls = 0;
  const MatrixD out = dmr_guard(
      executor, /*index=*/0, /*cost=*/4.0,
      [&] {
        ++calls;
        MatrixD m(1, 2);
        m(0, 0) = 1.5;
        m(0, 1) = -2.5;
        return m;
      },
      report);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(report.dmr_compares, 0u);
  EXPECT_TRUE(report.ops.empty());
  EXPECT_EQ(out(0, 1), -2.5);
}

TEST(DmrGuard, CleanPairComparesOnceWithoutOpReport) {
  GuardedExecutor::Options options;
  options.dmr_glue = true;
  const GuardedExecutor executor{options};
  LayerReport report;
  int calls = 0;
  const MatrixD out = dmr_guard(
      executor, /*index=*/0, /*cost=*/4.0,
      [&] {
        ++calls;
        MatrixD m(2, 2);
        m(1, 1) = 3.25;
        return m;
      },
      report);
  EXPECT_EQ(calls, 2);  // run + shadow.
  EXPECT_EQ(report.dmr_compares, 1u);
  EXPECT_EQ(report.dmr_mismatches, 0u);
  EXPECT_TRUE(report.ops.empty());  // clean compares stay out of the stream.
  EXPECT_EQ(out(1, 1), 3.25);
}

TEST(DmrGuard, TransientMismatchRetriesAndRecovers) {
  GuardedExecutor::Options options;
  options.dmr_glue = true;
  const GuardedExecutor executor{options};
  LayerReport report;
  int calls = 0;
  const MatrixD out = dmr_guard(
      executor, /*index=*/3, /*cost=*/4.0,
      [&] {
        MatrixD m(1, 1);
        // The very first execution carries a transient upset; every
        // re-execution (the shadow and the retry pair) is clean.
        m(0, 0) = (calls++ == 0) ? 7.125 : 1.0;
        return m;
      },
      report);
  EXPECT_GE(calls, 4);  // mismatched pair + at least one clean retry pair.
  EXPECT_GE(report.dmr_mismatches, 1u);
  ASSERT_EQ(report.ops.size(), 1u);
  EXPECT_EQ(report.ops.front().kind, OpKind::kControlPlane);
  EXPECT_EQ(report.ops.front().recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(out(0, 0), 1.0);  // the voted output is the clean one.
}

// --- The scrubber pacing engine ----------------------------------------

TEST(Scrubber, BudgetedPassesRotateTheCursorOverTheWalk) {
  std::vector<int> visits;
  const auto provider = [&] {
    std::vector<scrub::ScrubItem> items;
    for (int i = 0; i < 4; ++i) {
      items.push_back({[&visits, i] {
        visits.push_back(i);
        return scrub::ItemOutcome::kClean;
      }});
    }
    return items;
  };
  scrub::Scrubber::Options options;
  options.budget = 2;
  scrub::Scrubber scrubber(provider, options);
  EXPECT_EQ(scrubber.run_tick(), 2u);
  EXPECT_EQ(scrubber.run_tick(), 2u);
  EXPECT_EQ(scrubber.run_tick(), 2u);
  // Three budget-2 slices over a 4-item walk cover every item, wrapping:
  // one walk completed, the second half done.
  EXPECT_EQ(visits, (std::vector<int>{0, 1, 2, 3, 0, 1}));
  const scrub::ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.items_scrubbed, 6u);
  EXPECT_EQ(stats.faults_found, 0u);
  EXPECT_TRUE(scrubber.mid_walk());
}

TEST(Scrubber, CountsRepairsAndUnrepairables) {
  const auto provider = [] {
    std::vector<scrub::ScrubItem> items;
    items.push_back({[] { return scrub::ItemOutcome::kClean; }});
    items.push_back({[] { return scrub::ItemOutcome::kRepaired; }});
    items.push_back({[] { return scrub::ItemOutcome::kUnrepairable; }});
    return items;
  };
  scrub::Scrubber scrubber(provider, scrub::Scrubber::Options{});
  EXPECT_EQ(scrubber.run_tick(), 3u);  // budget 0 = the full walk.
  const scrub::ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.faults_found, 2u);  // repaired + unrepairable both alarm.
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.unrepairable, 1u);
}

// --- Latent shared-prefix-page drill -----------------------------------

TEST(Scrubber, IdleSharedPrefixPagesHealBeforeTheNextAcquire) {
  // The shared-page index is the longest-lived latent-fault surface: a
  // template's pages can sit evictable with no reader indefinitely. The
  // scrubber's walk covers them — the same provider shape the continuous
  // scheduler installs — so a dormant upset heals before the next prefix
  // hit maps the page into a fresh session.
  KvPoolConfig cfg;
  cfg.num_pages = 8;
  cfg.page_size = 4;
  cfg.width = 6;
  cfg.num_layers = 1;
  cfg.prefix_cache = true;
  KvPagePool pool(cfg);
  PagedKv publisher = pool.make_session(1);
  std::vector<double> k_row(cfg.width), v_row(cfg.width);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < cfg.width; ++c) {
      k_row[c] = double(r) + 0.5 * double(c);
      v_row[c] = 0.25 * double(c) - double(r);
    }
    pool.append(publisher, 0, k_row, v_row);
  }
  const std::vector<std::size_t> prompt{5, 40, 2, 19, 33, 8};
  pool.publish_prefix(publisher, prompt);
  const double clean_value = pool.k_at(publisher, 0, 1, 2);
  pool.corrupt_k(publisher, 0, /*row=*/1, /*col=*/2, /*delta=*/1.5);
  pool.free_session(publisher);  // now latent: no session maps the pages.

  const auto provider = [&pool] {
    std::vector<scrub::ScrubItem> items;
    for (const std::size_t id : pool.idle_shared_pages()) {
      items.push_back({[&pool, id] {
        return pool.scrub_shared_page(id) ? scrub::ItemOutcome::kRepaired
                                          : scrub::ItemOutcome::kClean;
      }});
    }
    return items;
  };
  scrub::Scrubber scrubber(provider, scrub::Scrubber::Options{});
  EXPECT_EQ(scrubber.run_tick(), 2u);  // both idle pages walked.
  const scrub::ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.faults_found, 1u);  // exactly the corrupted page.
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(pool.prefix_stats().shared_heals, 1u);

  // The next template hit maps already-healed pages and verifies clean:
  // the acquire acknowledges the post-heal epoch, so no stale-epoch alarm.
  PagedKv hit = pool.make_session(2);
  ASSERT_EQ(pool.acquire_prefix(hit, prompt), 5u);
  EXPECT_EQ(pool.k_at(hit, 0, 1, 2), clean_value);
  const CheckedOp op = pool.verify(hit, 0);
  EXPECT_EQ(op.check.residual(), 0.0);
  EXPECT_EQ(op.extra_checks.size(), 2u);
}

// --- Inline scrubbing on the threaded server (the TSan test) -----------

serve::ServerConfig small_server_config() {
  serve::ServerConfig config;
  config.num_workers = 2;
  config.queue_capacity = 32;
  config.model.vocab_size = 64;
  config.model.model_dim = 16;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.head_dim = 8;
  config.model.ffn_dim = 32;
  config.model.max_seq_len = 32;
  config.software_checker = CheckerConfig{1e-6};
  config.max_sessions = 4;
  config.scheduler.page_size = 4;
  config.scheduler.scrub = true;
  return config;
}

serve::ServeRequest generation_request(std::vector<std::size_t> prompt,
                                       std::size_t max_new_tokens) {
  serve::ServeRequest request;
  request.category = "generation";
  serve::GenerationWork work;
  work.prompt = std::move(prompt);
  work.max_new_tokens = max_new_tokens;
  request.work = std::move(work);
  return request;
}

TEST(InlineScrub, ThreadedServerHealsALatentUpsetAndServesCleanSessions) {
  serve::ServerConfig config = small_server_config();
  config.dmr_glue = true;
  serve::InferenceServer server(config);

  // Session 0 takes a latent KV upset and sits out a window far longer than
  // two walks at the serving budget (the worst-case age of a latent fault),
  // so the scrub slices at the end of each tick, not the next decode read,
  // must find it. Its prompt is its own: no co-reader's sweep can heal it.
  serve::ServeRequest latent = generation_request({9, 11, 29, 3, 17}, 5);
  serve::GenerationWork& work = std::get<serve::GenerationWork>(latent.work);
  serve::KvCorruption upset;
  upset.step = 3;
  upset.layer = 1;
  upset.value_side = false;
  upset.row = 2;
  upset.col = 1;
  upset.delta = 0.5;
  upset.latent = true;
  work.kv_corruptions.push_back(upset);
  work.latent_idle_ticks = 128;

  std::vector<std::future<serve::ServeResponse>> futures;
  futures.push_back(server.submit(std::move(latent)));
  for (int i = 0; i < 5; ++i) {
    futures.push_back(server.submit(generation_request({5, 40, 2, 19, 33}, 5)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::ServeResponse response = futures[i].get();
    EXPECT_TRUE(response.checksum_clean) << i;
    EXPECT_EQ(response.tokens.size(), 5u) << i;
    EXPECT_GT(response.counters.meta_verifies, 0u) << i;
    EXPECT_GT(response.counters.dmr_compares, 0u) << i;
    if (i == 0) {
      EXPECT_GE(response.counters.scrub_faults_found, 1u);
      EXPECT_GE(response.counters.scrub_repairs, 1u);
    } else {
      EXPECT_EQ(response.counters.scrub_faults_found, 0u) << i;
    }
  }
  server.shutdown();
  const serve::TelemetrySnapshot snapshot = server.telemetry().snapshot();
  EXPECT_GT(snapshot.scrub_passes, 0u);
  EXPECT_GE(snapshot.scrub_repairs, 1u);
}

TEST(InlineScrub, IdleServerStopsScrubbingOnceItsWalkCompletes) {
  serve::InferenceServer server(small_server_config());
  const serve::ServeResponse response =
      server.submit(generation_request({5, 40, 2, 19, 33}, 5)).get();
  EXPECT_TRUE(response.checksum_clean);
  // The walk in progress when the session finished completes within a few
  // idle slices; after that the scheduler sleeps and the count holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t settled = server.telemetry().snapshot().scrub_passes;
  EXPECT_GT(settled, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.telemetry().snapshot().scrub_passes, settled);
  server.shutdown();
}

// --- Deterministic latent-fault scrubbing under the stepper ------------

serve::GenerationWork latent_work(std::size_t seed_token) {
  serve::GenerationWork work;
  work.prompt = {seed_token, 11, 29, 3, 17};
  work.max_new_tokens = 6;
  return work;
}

TEST(ScrubDeterminism, LatentTrialsReplayTickForTick) {
  TransformerConfig model_cfg;
  model_cfg.vocab_size = 48;
  model_cfg.model_dim = 16;
  model_cfg.num_layers = 2;
  model_cfg.num_heads = 2;
  model_cfg.head_dim = 8;
  model_cfg.ffn_dim = 32;
  model_cfg.max_seq_len = 24;
  const TransformerModel model(model_cfg, /*seed=*/42);

  std::vector<serve::GenerationWork> works = {latent_work(5), latent_work(9)};
  serve::KvCorruption upset;
  upset.step = 3;
  upset.layer = 1;
  upset.value_side = false;
  upset.row = 2;
  upset.col = 1;
  upset.delta = 0.5;
  upset.latent = true;
  works[0].kv_corruptions.push_back(upset);
  works[0].latent_idle_ticks = 3;

  serve::StepperConfig cfg;
  cfg.page_size = 4;

  const auto first = serve::run_stepped(model, works, cfg);
  const auto second = serve::run_stepped(model, works, cfg);
  ASSERT_EQ(first.size(), 2u);
  // The scrubber found and healed the dormant upset before any decode
  // read, so the session completes with golden-identical tokens...
  EXPECT_FALSE(first[0].failed) << first[0].error;
  EXPECT_GT(first[0].counters.scrub_faults_found, 0u);
  EXPECT_GT(first[0].counters.scrub_repairs, 0u);
  EXPECT_EQ(first[1].counters.scrub_faults_found, 0u);  // untouched neighbor.
  // ...and identically on every replay (the campaign's contract).
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].tokens, second[i].tokens);
    EXPECT_EQ(first[i].final_logits, second[i].final_logits);
    EXPECT_EQ(first[i].counters.scrub_faults_found,
              second[i].counters.scrub_faults_found);
    EXPECT_EQ(first[i].counters.scrub_repairs,
              second[i].counters.scrub_repairs);
    EXPECT_EQ(first[i].counters.meta_verifies,
              second[i].counters.meta_verifies);
  }

  // Clean works through the same engine: the tokens match the corrupted
  // run's (the heal happened before the read), and no scrub finding.
  std::vector<serve::GenerationWork> clean = {latent_work(5), latent_work(9)};
  const auto golden = serve::run_stepped(model, clean, cfg);
  EXPECT_EQ(golden[0].tokens, first[0].tokens);
  EXPECT_EQ(golden[0].counters.scrub_faults_found, 0u);
}

}  // namespace
}  // namespace flashabft
