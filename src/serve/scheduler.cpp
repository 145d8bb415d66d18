#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/ensure.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "serve/fault_surface.hpp"

namespace flashabft::serve {

namespace {

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

KvPoolConfig scheduler_pool_config(const SchedulerConfig& cfg,
                                   const TransformerModel& model,
                                   std::size_t sessions) {
  KvPoolConfig pool_cfg =
      model.make_pool_config(cfg.page_size, cfg.num_pages, sessions);
  if (cfg.kv_budget_bytes > 0) {
    pool_cfg.num_pages = pool_cfg.pages_for_budget(cfg.kv_budget_bytes);
  }
  pool_cfg.prefix_cache = cfg.prefix_cache;
  return pool_cfg;
}

}  // namespace

ContinuousScheduler::ContinuousScheduler(
    const SchedulerConfig& cfg, const TransformerModel& model,
    const GuardedExecutor::Options& executor_options, SessionTable& sessions,
    ServeTelemetry& telemetry)
    : cfg_(cfg),
      model_(model),
      executor_options_(executor_options),
      sessions_(sessions),
      telemetry_(telemetry),
      pool_(scheduler_pool_config(cfg, model, sessions.max_active())),
      control_executor_(executor_options) {
  FLASHABFT_ENSURE_MSG(cfg_.max_batch_tokens > 0,
                       "scheduler needs a positive decode-batch cap");
  // 0 is resolved by the server (worker count capped at hardware
  // concurrency); an explicit setting is honored as-is so the parallel
  // sweep stays testable on any machine.
  if (cfg_.sweep_threads == 0) cfg_.sweep_threads = 1;
  telemetry_.set(Counter::pages_total, pool_.num_pages());
  if (cfg_.manual) {
    // Deterministic stepping: the owner drives ticks via run_tick() and a
    // single-threaded sweep keeps every tick's work order reproducible.
    cfg_.sweep_threads = 1;
  }
  if (cfg_.scrub) {
    scrub::Scrubber::Options scrub_options;
    scrub_options.budget = cfg_.scrub_budget;
    scrub_options.obs = cfg_.obs;
    scrubber_ = std::make_unique<scrub::Scrubber>(
        [this] { return scrub_items(); }, scrub_options);
  }
  if (!cfg_.manual) thread_ = std::thread([this] { loop(); });
}

ContinuousScheduler::~ContinuousScheduler() { shutdown(); }

bool ContinuousScheduler::admit(std::unique_ptr<GenerationSession>& session,
                                SessionAdmission& admission) {
  FLASHABFT_ENSURE(session != nullptr);
  {
    std::lock_guard lock(mutex_);
    // stop_ flips under this mutex and the loop only exits once stop_ is
    // observed *and* everything drained — so a false here happens-before
    // the final drain check and the session cannot be orphaned.
    if (stop_) return false;
    admission = sessions_.admit(std::move(session));
    if (admission.activated != nullptr) {
      ready_.push_back(admission.activated);
    }
  }
  wake_.notify_one();
  return true;
}

void ContinuousScheduler::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (cfg_.manual) {
    // No scheduler thread: drain inline. The run_tick() stall guard fails
    // unbackable sessions, so this loop terminates.
    while (run_tick()) {
    }
  } else if (thread_.joinable()) {
    thread_.join();
  }
}

bool ContinuousScheduler::run_tick() {
  FLASHABFT_ENSURE_MSG(cfg_.manual,
                       "run_tick requires SchedulerConfig::manual");
  std::vector<GenerationSession*> incoming;
  {
    std::lock_guard lock(mutex_);
    incoming.swap(ready_);
  }
  tick(std::move(incoming));

  // Stall guard: with nothing running there is nothing to preempt, so
  // waiting sessions the pool cannot back will never be admitted by
  // further ticks. A few grace ticks cover transient shapes (completions
  // land parked promotions next tick); past that, fail them so manual
  // drains always terminate.
  if (!running_.empty() || waiting_.empty()) {
    stall_ticks_ = 0;
  } else if (++stall_ticks_ >= 3) {
    std::deque<GenerationSession*> stalled;
    stalled.swap(waiting_);
    for (GenerationSession* session : stalled) {
      fail(session, std::make_exception_ptr(std::runtime_error(
                        "scheduler stalled: page pool cannot back the "
                        "waiting session")));
    }
    stall_ticks_ = 0;
  }

  std::lock_guard lock(mutex_);
  return has_work();
}

bool ContinuousScheduler::has_work() const {
  return !ready_.empty() || !waiting_.empty() || !running_.empty() ||
         sessions_.parked() > 0;
}

void ContinuousScheduler::abort_all(const std::string& reason) {
  FLASHABFT_ENSURE_MSG(cfg_.manual,
                       "abort_all requires SchedulerConfig::manual");
  const auto error =
      std::make_exception_ptr(std::runtime_error(reason));
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    for (GenerationSession* session : ready_) waiting_.push_back(session);
    ready_.clear();
  }
  // Fail running sessions first so their freed table slots let parked
  // sessions activate (and be failed) below.
  std::vector<GenerationSession*> running;
  running.swap(running_);
  for (GenerationSession* session : running) fail(session, error);
  std::deque<GenerationSession*> waiting;
  waiting.swap(waiting_);
  for (GenerationSession* session : waiting) fail(session, error);
  while (GenerationSession* parked = sessions_.try_activate_parked()) {
    fail(parked, error);
  }
  publish_page_usage();
}

void ContinuousScheduler::loop() {
  while (true) {
    std::vector<GenerationSession*> incoming;
    bool idle = false;
    {
      std::unique_lock lock(mutex_);
      // With no work left, a walk in progress is finished one slice per
      // iteration (so an arriving session waits at most one slice); once
      // it completes the scheduler sleeps until woken.
      wake_.wait(lock, [&] {
        return stop_ || has_work() ||
               (scrubber_ != nullptr && scrubber_->mid_walk());
      });
      idle = !has_work();
      if (stop_ && idle) return;
      incoming.swap(ready_);
    }
    if (idle) {
      scrub_slice();
    } else {
      tick(std::move(incoming));
    }
  }
}

std::size_t ContinuousScheduler::content_tokens(
    const GenerationSession& session) const {
  // The cache holds the prompt plus every generated token except the last,
  // still-undecoded one (the step protocol of TransformerModel::generate).
  return session.prompt().size() +
         (session.tokens().empty() ? 0 : session.tokens().size() - 1);
}

void ContinuousScheduler::insert_waiting(GenerationSession* session) {
  const auto pos = std::find_if(
      waiting_.begin(), waiting_.end(), [&](const GenerationSession* other) {
        return other->sched_order > session->sched_order;
      });
  waiting_.insert(pos, session);
}

void ContinuousScheduler::tick(std::vector<GenerationSession*> incoming) {
  obs::TraceSpan tick_span(cfg_.obs.trace, "tick", "sched");
  swept_.clear();
  // Parked admissions first: the table promotes oldest-first, and stamping
  // orders here keeps FIFO age consistent with admission order.
  while (GenerationSession* parked = sessions_.try_activate_parked()) {
    telemetry_.add(Counter::sessions_started);
    parked->sched_order = next_order_++;
    insert_waiting(parked);
  }
  for (GenerationSession* session : incoming) {
    telemetry_.add(Counter::sessions_started);
    session->sched_order = next_order_++;
    if (cfg_.obs.trace != nullptr) {
      cfg_.obs.trace->instant_arg("admit", session->sched_order, "sched");
    }
    insert_waiting(session);
  }
  admit_waiting();
  decode_tick();
  // Completions inside this tick freed slots; pull their parked successors
  // now so the wait predicate can sleep on an empty table.
  while (GenerationSession* parked = sessions_.try_activate_parked()) {
    telemetry_.add(Counter::sessions_started);
    parked->sched_order = next_order_++;
    insert_waiting(parked);
  }
  publish_page_usage();
  scrub_slice();
}

void ContinuousScheduler::admit_waiting() {
  while (!waiting_.empty()) {
    GenerationSession* session = waiting_.front();
    // Room for the re-prefilled content plus the next decode append keeps a
    // fresh admission from preempting something on its very first step.
    const std::size_t needed =
        pool_.session_pages_for(content_tokens(*session) + 1);
    // available_pages counts registered-but-unmapped shared pages too: the
    // allocator reclaims them by LRU eviction, so they must not trigger
    // preemption of live sessions.
    if (pool_.available_pages() < needed &&
        !preempt_for(needed, session->sched_order)) {
      break;  // no eligible (younger) victims — wait for completions.
    }
    waiting_.pop_front();
    try {
      start_or_resume(*session);
    } catch (...) {
      fail(session, std::current_exception());
    }
  }
}

void ContinuousScheduler::start_or_resume(GenerationSession& session) {
  const Clock::time_point start = Clock::now();
  const bool first_activation = session.paged == nullptr;
  obs::TraceSpan prefill_span(
      cfg_.obs.trace, first_activation ? "prefill" : "resume-prefill",
      "sched");
  if (first_activation) {
    session.paged = std::make_unique<PagedKv>(
        pool_.make_session(session.key));
    if (session.enqueue_time != Clock::time_point{}) {
      session.queue_us = to_us(start - session.enqueue_time);
    }
  } else {
    ++session.resumes;
    telemetry_.add(Counter::session_resumes);
    if (cfg_.obs.flight != nullptr) {
      cfg_.obs.flight->record(obs::FlightEventKind::kResume, "scheduler",
                              "session", session.sched_order);
    }
  }

  // Step-0 session tampers (prompt upsets, budget tampers) land on the
  // original prefill only, mirroring the step-0 tamper rule below: a
  // resume replays already-tampered state. The tamper writes through the
  // record's raw backdoor; the boundary verify right after catches the
  // stale seal and repairs from the mirror, so a tampered session alarms
  // instead of silently steering the prefill.
  if (first_activation) {
    apply_session_tampers(session.work, session.meta.raw(), /*step_index=*/0,
                          model_.config().vocab_size);
    verify_meta(session);
  }

  // First activation prefills the prompt; a resume re-prefills prompt +
  // generated tokens (minus the undecoded last) — greedy decode is
  // deterministic, so the rebuilt pages continue token-for-token.
  std::vector<std::size_t> content = session.prompt();
  if (!session.tokens().empty()) {
    content.insert(content.end(), session.tokens().begin(),
                   session.tokens().end() - 1);
  }
  // Step-0 faults fire on the original prefill only: a resume is a fresh
  // recomputation of already-produced state, so re-arming the tamper would
  // re-inject the same fault once per preemption cycle and inflate the
  // alarm/fallback accounting relative to what was actually injected.
  GuardedExecutor executor = first_activation
                                 ? make_step_executor(session, /*step=*/0)
                                 : GuardedExecutor(executor_options_);
  // Shared-prefix lookup: map the longest registered prefix of the content
  // into the (empty) tables and prefill only the suffix. A resume
  // re-resolves — its preemption dropped the refs but the registry entry
  // (and pages) linger as evictable cache, so the resume's re-prefill
  // collapses to the divergent tail.
  const std::size_t cached =
      cfg_.prefix_cache ? pool_.acquire_prefix(*session.paged, content) : 0;
  if (first_activation) session.prefix_cached_tokens = cached;
  StepResult step =
      cached > 0
          ? model_.prefill_paged_cached(content, cached,
                                        AttentionBackend::kFlashAbft, executor,
                                        pool_, *session.paged)
          : model_.prefill_paged(content, AttentionBackend::kFlashAbft,
                                 executor, pool_, *session.paged);
  // Register the prompt's prefill pages for later sessions. Only the
  // original prefill publishes: a resume's content embeds generated tokens
  // no other session's *prompt* can hit.
  if (first_activation && cfg_.prefix_cache) {
    pool_.publish_prefix(*session.paged, session.prompt());
  }

  const double service_us = to_us(Clock::now() - start);
  if (first_activation) {
    const bool done = absorb_step(session, std::move(step),
                                  /*batch_size=*/1, service_us);
    session.ttft_us = session.enqueue_time != Clock::time_point{}
                          ? to_us(Clock::now() - session.enqueue_time)
                          : session.service_us;
    if (done) {
      finalize(&session);
      return;
    }
  } else {
    // The resume's produced token is the one the session already holds;
    // only the (real, protected) recomputation work is accounted.
    absorb_report(session, std::move(step.report), service_us);
  }
  running_.push_back(&session);
}

bool ContinuousScheduler::preempt_for(std::size_t needed,
                                      std::uint64_t requester_order) {
  while (pool_.available_pages() < needed) {
    GenerationSession* victim = nullptr;
    for (GenerationSession* candidate : running_) {
      // Victims are strictly younger than the requester: the oldest
      // session can never be preempted, so it always finishes. The newest
      // goes first, which wastes the least prefill work.
      if (candidate->sched_order <= requester_order) continue;
      if (victim == nullptr || candidate->sched_order > victim->sched_order) {
        victim = candidate;
      }
    }
    if (victim == nullptr) return false;
    preempt(victim);
  }
  return true;
}

void ContinuousScheduler::preempt(GenerationSession* victim) {
  pool_.free_session(*victim->paged);
  ++victim->preemptions;
  telemetry_.add(Counter::preemptions);
  if (cfg_.obs.flight != nullptr) {
    cfg_.obs.flight->record(obs::FlightEventKind::kPreemption, "scheduler",
                            "session", victim->sched_order);
  }
  if (cfg_.obs.trace != nullptr) {
    cfg_.obs.trace->instant_arg("preempt", victim->sched_order, "sched");
  }
  running_.erase(std::find(running_.begin(), running_.end(), victim));
  insert_waiting(victim);
}

void ContinuousScheduler::apply_corruptions(GenerationSession& session,
                                            std::size_t step_index) {
  apply_kv_corruptions(session.work, step_index, pool_, *session.paged);
}

GuardedExecutor ContinuousScheduler::make_step_executor(
    const GenerationSession& session, std::size_t step_index) const {
  return make_generation_step_executor(session.work, step_index,
                                       executor_options_);
}

void ContinuousScheduler::absorb_report(GenerationSession& session,
                                        ModelReport report,
                                        double service_us) {
  ProtectionCounters& counters = session.counters;
  counters.op_executions += report.executions();
  counters.alarm_events += report.alarm_events();
  counters.fallback_ops += report.fallback_ops();
  counters.dmr_compares += report.dmr_compares();
  counters.dmr_mismatches += report.dmr_mismatches();
  session.recovered_ops += report.recovered_ops();
  if (report.escalated_ops() > 0) telemetry_.add(Counter::escalations);
  session.checksum_clean =
      session.checksum_clean && report.all_accepted_clean();
  std::vector<OpReport> flat = report.flatten();
  session.all_reports.insert(session.all_reports.end(),
                             std::make_move_iterator(flat.begin()),
                             std::make_move_iterator(flat.end()));
  session.service_us += service_us;
}

void ContinuousScheduler::absorb_control(GenerationSession& session,
                                         LayerReport report) {
  ModelReport wrapper;
  wrapper.final_ops = std::move(report);
  absorb_report(session, std::move(wrapper), /*service_us=*/0.0);
}

bool ContinuousScheduler::verify_meta(GenerationSession& session) {
  ++session.counters.meta_verifies;
  LayerReport report;
  const bool clean = guarded_meta_verify(session.meta, /*index=*/0,
                                         control_executor_, report);
  const OpReport& op = report.ops.front();
  // Clean first-try verifies stay out of the session's op stream (one per
  // stepping session per tick would dwarf the real compute ops); alarmed
  // or escalated ones report through the ladder like any guarded op.
  if (op.alarms > 0 || op.verdict == CheckVerdict::kAlarm) {
    absorb_control(session, std::move(report));
  }
  return clean;
}

bool ContinuousScheduler::absorb_step(GenerationSession& session,
                                      StepResult step, std::size_t batch_size,
                                      double service_us) {
  const bool is_prefill = session.tokens().empty();
  session.push_token(step.next_token);
  session.final_logits = std::move(step.logits);
  if (!is_prefill) session.count_step();
  absorb_report(session, std::move(step.report), service_us);
  session.batch_size = batch_size;
  return session.done();
}

void ContinuousScheduler::decode_tick() {
  if (running_.empty()) return;
  obs::TraceSpan sweep_span(cfg_.obs.trace, "decode-batch", "sched");

  // Latent-fault windows: a session whose next step carries a latent
  // corruption takes the upset NOW, then sits out `latent_idle_ticks`
  // ticks before decoding again — the exposure window in which the
  // scrubber (not the read path) must find and heal the fault.
  std::vector<GenerationSession*> eligible;
  eligible.reserve(running_.size());
  for (GenerationSession* session : running_) {
    const std::size_t step_index = session->steps_done() + 1;
    if (session->idle_ticks_left == 0 &&
        session->latent_step_done != step_index &&
        has_latent_corruption(session->work, step_index)) {
      apply_kv_corruptions(session->work, step_index, pool_, *session->paged,
                           /*latent=*/true);
      session->latent_step_done = step_index;
      session->idle_ticks_left = session->work.latent_idle_ticks;
    }
    if (session->idle_ticks_left > 0) {
      --session->idle_ticks_left;
      continue;  // idle this tick; the scrubber owns the window.
    }
    eligible.push_back(session);
  }
  if (eligible.empty()) return;

  // Round-robin selection keeps every session advancing when the run set
  // exceeds the decode-batch cap.
  std::vector<GenerationSession*> batch;
  const std::size_t take = std::min(cfg_.max_batch_tokens, eligible.size());
  rotate_ %= eligible.size();
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(eligible[(rotate_ + i) % eligible.size()]);
  }
  rotate_ += take;

  // Page-pressure phase: sessions crossing a page boundary take their
  // pages oldest-first, *eagerly* (reserve_append), so the parallel sweep
  // below never touches the shared free list — and later batch members
  // cannot double-book pages already granted this tick. Victims of a
  // reservation are always strictly younger than the requester, i.e.
  // later in this age-sorted batch — never a session already admitted to
  // `advancing`.
  std::sort(batch.begin(), batch.end(),
            [](const GenerationSession* a, const GenerationSession* b) {
              return a->sched_order < b->sched_order;
            });
  std::vector<GenerationSession*> advancing;
  for (GenerationSession* session : batch) {
    if (std::find(running_.begin(), running_.end(), session) ==
        running_.end()) {
      continue;  // preempted by an older batch member's reservation.
    }
    const std::size_t needed = pool_.append_pages_needed(*session->paged);
    if (needed > 0) {
      if (pool_.available_pages() < needed &&
          !preempt_for(needed, session->sched_order)) {
        continue;  // skip this tick; pages free as older sessions finish.
      }
      pool_.reserve_append(*session->paged);
    }
    advancing.push_back(session);
  }
  if (advancing.empty()) return;

  // Session tampers land only on sessions actually stepping this tick (a
  // skipped session re-applies the same step next tick, which would
  // double-inject). The tick-boundary verify right after catches the stale
  // seal and repairs the record from its mirror, so a tamper alarms and
  // the session continues on clean metadata; only a double-fault that also
  // hit the mirror survives (and still carries the alarm). A session whose
  // (repaired or tampered) budget is already met finalizes on the spot.
  std::vector<GenerationSession*> stepping;
  stepping.reserve(advancing.size());
  for (GenerationSession* session : advancing) {
    const std::size_t step_index = session->steps_done() + 1;
    apply_session_tampers(session->work, session->meta.raw(), step_index,
                          model_.config().vocab_size);
    verify_meta(*session);
    if (session->done()) {
      running_.erase(std::find(running_.begin(), running_.end(), session));
      finalize(session);
      continue;
    }
    stepping.push_back(session);
  }
  advancing = std::move(stepping);
  if (advancing.empty()) return;

  const Clock::time_point start = Clock::now();
  std::vector<std::size_t> tokens;
  std::vector<GuardedExecutor> executors;
  std::vector<const GuardedExecutor*> executor_ptrs;
  std::vector<PagedKv*> kvs;
  tokens.reserve(advancing.size());
  executors.reserve(advancing.size());
  kvs.reserve(advancing.size());
  for (GenerationSession* session : advancing) {
    const std::size_t step_index = session->steps_done() + 1;
    // Storage upsets scheduled between steps land now, before the sweep
    // reads the pages (the kKvPage check must catch and repair them).
    apply_corruptions(*session, step_index);
    tokens.push_back(session->tokens().back());
    executors.push_back(make_step_executor(*session, step_index));
    kvs.push_back(session->paged.get());
  }
  for (const GuardedExecutor& executor : executors) {
    executor_ptrs.push_back(&executor);
  }

  // Parallel sweep: the batch is partitioned across sweep threads. Pages
  // were pre-reserved above, so a session's step only touches its own
  // pages and executor — with one exception: sessions mapping the same
  // shared-prefix chain all verify (and on alarm, heal) the SAME pages.
  // Co-readers are therefore fused into one unit (keyed by the pool's
  // share_group — the chain-head page id) and a unit never splits across
  // slices, so a reader's restore cannot write memory another thread's
  // verify is scanning. Units go to the least-loaded slice; threads are
  // spawned per tick (simple and join-bounded) and a slice must average
  // two sessions so tiny batches never pay a spawn for less work than it
  // costs. Results map back by batch index, so outputs are independent of
  // the partition.
  const std::size_t slices = std::max<std::size_t>(
      1, std::min(cfg_.sweep_threads, advancing.size() / 2));
  std::vector<std::vector<std::size_t>> units;
  units.reserve(advancing.size());
  {
    std::unordered_map<std::size_t, std::size_t> group_unit;
    for (std::size_t i = 0; i < advancing.size(); ++i) {
      const std::size_t group = pool_.share_group(*advancing[i]->paged);
      if (group == KvPagePool::kNoShareGroup) {
        units.push_back({i});
        continue;
      }
      const auto [it, inserted] = group_unit.emplace(group, units.size());
      if (inserted) units.emplace_back();
      units[it->second].push_back(i);
    }
  }
  std::vector<std::vector<std::size_t>> slice_members(slices);
  for (const std::vector<std::size_t>& unit : units) {
    std::size_t best = 0;
    for (std::size_t slice = 1; slice < slices; ++slice) {
      if (slice_members[slice].size() < slice_members[best].size()) {
        best = slice;
      }
    }
    slice_members[best].insert(slice_members[best].end(), unit.begin(),
                               unit.end());
  }

  std::vector<std::vector<StepResult>> slice_steps(slices);
  std::vector<std::exception_ptr> slice_errors(slices);
  const auto run_slice = [&](std::size_t slice) {
    const std::vector<std::size_t>& members = slice_members[slice];
    if (members.empty()) return;
    std::vector<std::size_t> slice_tokens;
    std::vector<const GuardedExecutor*> slice_executors;
    std::vector<PagedKv*> slice_kvs;
    slice_tokens.reserve(members.size());
    slice_executors.reserve(members.size());
    slice_kvs.reserve(members.size());
    for (std::size_t member : members) {
      slice_tokens.push_back(tokens[member]);
      slice_executors.push_back(executor_ptrs[member]);
      slice_kvs.push_back(kvs[member]);
    }
    try {
      slice_steps[slice] = model_.decode_step_batch(
          slice_tokens, slice_executors, AttentionBackend::kFlashAbft, pool_,
          slice_kvs);
    } catch (...) {
      slice_errors[slice] = std::current_exception();
    }
  };
  std::vector<std::thread> sweepers;
  sweepers.reserve(slices - 1);
  for (std::size_t slice = 1; slice < slices; ++slice) {
    sweepers.emplace_back(run_slice, slice);
  }
  run_slice(0);
  for (std::thread& sweeper : sweepers) sweeper.join();

  std::exception_ptr error;
  for (const std::exception_ptr& e : slice_errors) {
    if (e != nullptr) error = e;
  }
  if (error != nullptr) {
    // A throwing sweep cannot attribute per-session progress; fail the
    // whole batch rather than the scheduler thread.
    for (GenerationSession* session : advancing) {
      running_.erase(std::find(running_.begin(), running_.end(), session));
      fail(session, error);
    }
    return;
  }
  std::vector<StepResult> steps(advancing.size());
  for (std::size_t slice = 0; slice < slices; ++slice) {
    for (std::size_t j = 0; j < slice_members[slice].size(); ++j) {
      steps[slice_members[slice][j]] = std::move(slice_steps[slice][j]);
    }
  }

  // The sweep verified every advancing session's pages, page tables and
  // (just before it) sealed metadata: this tick's scrub slice skips them.
  for (const GenerationSession* session : advancing) {
    swept_.push_back(session->sched_order);
  }
  const double share_us =
      to_us(Clock::now() - start) / double(advancing.size());
  telemetry_.add(Counter::scheduler_ticks);
  telemetry_.add(Counter::scheduled_steps, advancing.size());
  if (cfg_.obs.trace != nullptr) {
    cfg_.obs.trace->instant_arg("decode-batch-size", advancing.size(),
                                "sched");
  }
  for (std::size_t i = 0; i < advancing.size(); ++i) {
    GenerationSession* session = advancing[i];
    if (absorb_step(*session, std::move(steps[i]), advancing.size(),
                    share_us)) {
      running_.erase(std::find(running_.begin(), running_.end(), session));
      finalize(session);
    }
  }
}

void ContinuousScheduler::finalize(GenerationSession* session) {
  ServeResponse response;
  response.id = session->id;
  response.batch_size = session->batch_size;
  response.tokens = session->tokens();
  response.final_logits = std::move(session->final_logits);
  response.decode_steps = session->steps_done();
  response.ttft_us = session->ttft_us;
  response.queue_us = session->queue_us;
  response.service_us = session->service_us;
  response.total_us = session->enqueue_time != Clock::time_point{}
                          ? to_us(Clock::now() - session->enqueue_time)
                          : session->service_us;
  response.reports = std::move(session->all_reports);
  response.counters = session->counters;
  response.checksum_clean = session->checksum_clean;
  response.preemptions = session->preemptions;
  response.resumes = session->resumes;
  response.prefix_cached_tokens = session->prefix_cached_tokens;
  response.path = session->path();
  pool_.free_session(*session->paged);
  publish_page_usage();
  telemetry_.on_response(response);
  telemetry_.on_session_complete(response);
  std::unique_ptr<GenerationSession> finished =
      sessions_.release(session->key);
  finished->promise.set_value(std::move(response));
}

void ContinuousScheduler::fail(GenerationSession* session,
                               std::exception_ptr error) {
  if (session->paged != nullptr) pool_.free_session(*session->paged);
  std::unique_ptr<GenerationSession> failed = sessions_.release(session->key);
  failed->promise.set_exception(std::move(error));
}

void ContinuousScheduler::publish_page_usage() {
  // Registered-but-unmapped shared pages are cache, not live occupancy:
  // the allocator reclaims them on demand, so they are reported as free.
  telemetry_.set(Counter::pages_in_use,
                 pool_.pages_in_use() - pool_.evictable_pages());
  telemetry_.set(Counter::pages_total, pool_.num_pages());
  telemetry_.set(Counter::peak_pages_in_use, pool_.peak_pages_in_use());
  const PrefixCacheStats prefix = pool_.prefix_stats();
  telemetry_.set(Counter::prefix_hits, prefix.hits);
  telemetry_.set(Counter::prefix_misses, prefix.misses);
  telemetry_.set(Counter::prefix_hit_tokens, prefix.hit_tokens);
  telemetry_.set(Counter::prefix_cow_forks, prefix.cow_forks);
  telemetry_.set(Counter::prefix_evictions, prefix.evictions);
  telemetry_.set(Counter::shared_heals, prefix.shared_heals);
  telemetry_.set(Counter::shared_pages, pool_.shared_pages());
  telemetry_.set(Counter::evictable_pages, pool_.evictable_pages());
  // CoW forks and shared-page heals happen inside the pool; surface them as
  // counter deltas at this publish boundary (one event per occurrence).
  for (; seen_cow_forks_ < prefix.cow_forks; ++seen_cow_forks_) {
    if (cfg_.obs.trace != nullptr) {
      cfg_.obs.trace->instant_arg("cow-fork", seen_cow_forks_ + 1, "sched");
    }
  }
  for (; seen_shared_heals_ < prefix.shared_heals; ++seen_shared_heals_) {
    if (cfg_.obs.flight != nullptr) {
      cfg_.obs.flight->record(obs::FlightEventKind::kHealEpoch, "kv_pool",
                              "shared_page", seen_shared_heals_ + 1);
    }
  }
}

std::vector<scrub::ScrubItem> ContinuousScheduler::scrub_items() {
  std::vector<scrub::ScrubItem> items;
  items.reserve(model_.weight_part_count() +
                running_.size() * (1 + model_.config().num_layers) +
                pool_.num_pages());
  // The shared model weights, one matrix per item so no slice carries the
  // whole-model walk. Storage corruption of a parameter is visible to
  // every running session, so a stale checksum marks them all — and
  // because the compare is bit-exact at every dtype, weight detection does
  // not degrade under low-precision storage the way the
  // quantization-widened arithmetic thresholds do.
  for (std::size_t part = 0; part < model_.weight_part_count(); ++part) {
    items.push_back({[this, part] {
      LayerReport report;
      if (guarded_weight_part_verify(model_, part, /*index=*/0,
                                     control_executor_, report)) {
        return scrub::ItemOutcome::kClean;
      }
      for (GenerationSession* session : running_) {
        ++session->counters.scrub_faults_found;
        LayerReport copy;
        for (const OpReport& op : report.ops) copy.ops.push_back(op);
        absorb_control(*session, std::move(copy));
      }
      return scrub::ItemOutcome::kUnrepairable;
    }});
  }
  // A session item's finding goes to its session's accounting.
  const auto settle = [this](GenerationSession& session, LayerReport report) {
    const RecoveryStatus recovery = report.ops.front().recovery;
    if (recovery == RecoveryStatus::kCleanFirstTry) {
      return scrub::ItemOutcome::kClean;
    }
    ++session.counters.scrub_faults_found;
    if (recovery == RecoveryStatus::kRecovered) {
      ++session.counters.scrub_repairs;
    }
    absorb_control(session, std::move(report));
    return recovery == RecoveryStatus::kRecovered
               ? scrub::ItemOutcome::kRepaired
               : scrub::ItemOutcome::kUnrepairable;
  };
  for (const GenerationSession* session : running_) {
    const std::uint64_t order = session->sched_order;
    // The sealed metadata record.
    items.push_back({[this, order, settle] {
      GenerationSession* target = scrub_target(order);
      if (target == nullptr) return scrub::ItemOutcome::kSkipped;
      LayerReport report;
      (void)guarded_meta_verify(target->meta, /*index=*/0, control_executor_,
                                report);
      return settle(*target, std::move(report));
    }});
    // Every layer's pages and page table.
    for (std::size_t layer = 0; layer < session->paged->num_layers();
         ++layer) {
      items.push_back({[this, order, layer, settle] {
        GenerationSession* target = scrub_target(order);
        if (target == nullptr) return scrub::ItemOutcome::kSkipped;
        LayerReport report;
        (void)guarded_page_verify(pool_, *target->paged, layer,
                                  /*index=*/layer, control_executor_, report);
        return settle(*target, std::move(report));
      }});
    }
  }
  // Idle shared-prefix pages: registered pages no running session maps.
  // Nothing verifies them on the decode path, so the scrubber is the only
  // thing standing between a latent upset and the next session that maps
  // the prefix — exactly the exposure window the latent drill measures.
  for (std::size_t id : pool_.idle_shared_pages()) {
    items.push_back({[this, id] {
      return pool_.scrub_shared_page(id) ? scrub::ItemOutcome::kRepaired
                                         : scrub::ItemOutcome::kClean;
    }});
  }
  return items;
}

GenerationSession* ContinuousScheduler::scrub_target(
    std::uint64_t order) const {
  if (std::find(swept_.begin(), swept_.end(), order) != swept_.end()) {
    return nullptr;
  }
  const auto it = std::find_if(
      running_.begin(), running_.end(),
      [order](const GenerationSession* s) { return s->sched_order == order; });
  return it == running_.end() ? nullptr : *it;
}

void ContinuousScheduler::scrub_slice() {
  if (scrubber_ == nullptr) return;
  scrubber_->run_tick();
  const scrub::ScrubStats& stats = scrubber_->stats();
  telemetry_.set(Counter::scrub_passes, stats.passes);
  telemetry_.set(Counter::scrub_items, stats.items_scrubbed);
  telemetry_.set(Counter::scrub_faults_found, stats.faults_found);
  telemetry_.set(Counter::scrub_repairs, stats.repairs);
  telemetry_.set(Counter::scrub_unrepairable, stats.unrepairable);
}

}  // namespace flashabft::serve
