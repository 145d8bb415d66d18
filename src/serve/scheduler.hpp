// Continuous-batching decode scheduler over the checksum-protected paged
// KV pool — the server's generation engine.
//
// One scheduler thread owns a shared `KvPagePool` and a run set of
// sessions, and every *tick* advances ALL schedulable sessions one token
// with a single layer-major `decode_step_batch` sweep — no per-token queue
// traffic, memory follows actual sequence length, and aggregate tokens/sec
// scales with concurrency instead of worker count.
//
// Admission flows through the server's `SessionTable` (bounded active set +
// age-ordered parking FIFO with the starvation guard); page pressure is
// handled by *preemption*: when the pool cannot back a session's next
// append (or a waiting session's prefill), the newest strictly-younger
// running session is parked — its pages released, its generated tokens
// kept — and later *resumed losslessly* by re-prefilling prompt + generated
// tokens (greedy decode is deterministic, so the rebuilt cache continues
// token-for-token; the drill tests pin this). The oldest session is never
// preempted and the pool always fits one full-length session, so progress
// is guaranteed.
//
// Every step runs under the GuardedOp regime, plus the pool's `kKvPage`
// verification (page contents + page-table mapping, checkpoint-restore
// recovery) on every cached read. Op-level diversity comes from the
// scalar reference fallback every escalated op is served by.
//
// Every tick ends with one budgeted scrub slice on the same thread, and an
// idle scheduler finishes the scrub walk in progress before it sleeps.
//
// Threading: the scheduler thread is the only toucher of the pool, the run
// set, the scrubber and session contents after activation; cross-thread
// handoff is the mutex-guarded ready queue (enqueue side) and the
// SessionTable's own lock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/kv_pool.hpp"
#include "model/transformer_model.hpp"
#include "obs/hooks.hpp"
#include "scrub/scrubber.hpp"
#include "serve/session.hpp"
#include "serve/telemetry.hpp"

namespace flashabft::serve {

/// The engine serving GenerationWork: the continuous scheduler is the only
/// one (see SchedulerConfig::mode).
enum class SchedulerMode {
  kContinuous,  ///< paged pool + continuous-batching scheduler thread.
};

struct SchedulerConfig {
  /// Has a single value; kept only so callers that name the engine
  /// explicitly (`mode = SchedulerMode::kContinuous`) still compile.
  SchedulerMode mode = SchedulerMode::kContinuous;
  /// Decode-batch cap: sessions advanced per tick (the "max batch tokens"
  /// of a one-token-per-session decode sweep). Excess sessions rotate in
  /// round-robin across ticks.
  std::size_t max_batch_tokens = 16;
  /// Token rows per pool page.
  std::size_t page_size = 16;
  /// Pool size; 0 derives the minimum that fits `max_sessions` full-length
  /// sessions (no page pressure). Size it smaller to exercise preemption.
  std::size_t num_pages = 0;
  /// Fixed KV byte budget; when > 0 it overrides `num_pages`: the pool is
  /// sized to KvPoolConfig::pages_for_budget(kv_budget_bytes) at the
  /// model's storage dtype. This is the knob the dtype benchmark holds
  /// constant while sweeping --dtype — half-width storage doubles the
  /// pages (and so the resident sessions) the same byte budget backs.
  std::size_t kv_budget_bytes = 0;
  /// Shared-prefix KV caching: prefill pages are registered in the pool's
  /// refcounted read-only index and later sessions with a matching prompt
  /// prefix map them instead of recomputing (copy-on-write on first
  /// divergence, LRU eviction under page pressure). TTFT of a prefix hit
  /// collapses to the page walk plus one decode step.
  bool prefix_cache = true;
  /// Decode-sweep parallelism: the tick's batch is partitioned across this
  /// many threads (sessions are independent once pages are pre-reserved;
  /// slices under two sessions never spawn). 0 = resolved by the server to
  /// its worker count capped at hardware concurrency; an explicit value is
  /// honored as-is.
  std::size_t sweep_threads = 0;
  /// Deterministic single-tick stepping: no scheduler thread is spawned
  /// and the owner drives every tick explicitly through `run_tick()`
  /// (sweep_threads forced to 1). The fault campaign runs the real
  /// scheduler this way so identical seeds replay identical tick orders.
  bool manual = false;
  /// Scrubber over the model weights, the running sessions' pages, page
  /// tables and sealed metadata, and idle shared-prefix pages: latent
  /// storage upsets are found and healed from the checkpoint mirrors
  /// *before* the next decode read trips on them. One budgeted slice runs
  /// at the end of every tick on the scheduler thread (sessions this
  /// tick's sweep just verified are skipped); an idle scheduler finishes
  /// the walk in progress, then sleeps.
  bool scrub = true;
  /// Items verified per scrub slice; 0 = the full walk every tick (what
  /// the deterministic stepper uses). The serving default verifies one
  /// weight matrix, session layer or idle page per tick: at the perfbench
  /// shape that is ~0.05 ms on average (0.17 ms at most) against a ~2 ms
  /// single-session tick.
  std::size_t scrub_budget = 1;
  /// Non-owning observability taps (the server copies its own here): tick /
  /// admission / prefill / decode-batch spans go to `trace`; preemptions,
  /// resumes, CoW forks and shared-page heal epochs to `flight`. The
  /// scrubber gets the same hooks. Null = off.
  obs::ObsHooks obs{};
};

/// The continuous-batching engine. Owned by the server; constructed lazily
/// with the shared TransformerModel.
class ContinuousScheduler {
 public:
  ContinuousScheduler(const SchedulerConfig& cfg,
                      const TransformerModel& model,
                      const GuardedExecutor::Options& executor_options,
                      SessionTable& sessions, ServeTelemetry& telemetry);
  ~ContinuousScheduler();

  ContinuousScheduler(const ContinuousScheduler&) = delete;
  ContinuousScheduler& operator=(const ContinuousScheduler&) = delete;

  /// Admits a session through the SessionTable *under the scheduler's
  /// lock*, so admission and shutdown are serialized: if this returns true
  /// the scheduler thread is guaranteed to still drain the session
  /// (activated, parked or promoted alike); if it returns false the drain
  /// has already been decided and `session` is handed back untouched for
  /// the caller to fail. Any thread.
  [[nodiscard]] bool admit(std::unique_ptr<GenerationSession>& session,
                           SessionAdmission& admission);

  /// Drains every admitted session (active, parked and waiting) to
  /// completion, then joins the scheduler thread. In manual mode there is
  /// no thread: the drain runs inline as repeated `run_tick()` calls.
  /// Idempotent.
  void shutdown();

  /// Manual mode only: runs exactly one scheduler tick on the calling
  /// thread and returns true while admitted sessions remain (i.e. another
  /// tick is needed). A stall guard fails waiting sessions that the pool
  /// provably cannot back (nothing running to preempt for several
  /// consecutive ticks), so driving `run_tick()` to false always
  /// terminates.
  [[nodiscard]] bool run_tick();

  /// Manual mode only: fails every admitted session (ready, running,
  /// waiting and parked) with `reason` — the tick-budget watchdog's escape
  /// hatch, so a wedged campaign trial can classify as crash/hang instead
  /// of hanging the destructor's drain.
  void abort_all(const std::string& reason);

  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }
  /// Pool shape for observability (the pool itself is scheduler-private).
  [[nodiscard]] std::size_t pool_pages() const { return pool_.num_pages(); }

 private:
  void loop();
  /// One scheduler iteration over `incoming` newly activated sessions.
  void tick(std::vector<GenerationSession*> incoming);
  /// Inserts into waiting_ keeping ascending age (sched_order).
  void insert_waiting(GenerationSession* session);
  /// Admits waiting sessions (oldest first) while the pool can back their
  /// prefill/resume, preempting younger running sessions as needed.
  void admit_waiting();
  /// Prefill (or lossless resume re-prefill) of a pageless session;
  /// finalizes it if the prefill produced its last token.
  void start_or_resume(GenerationSession& session);
  /// Advances up to max_batch_tokens running sessions one token.
  void decode_tick();
  /// Frees pages until `needed` are available, preempting the newest
  /// session strictly younger than `requester_order` first; false if no
  /// eligible victim remains.
  bool preempt_for(std::size_t needed, std::uint64_t requester_order);
  void preempt(GenerationSession* victim);
  /// Applies the session's KvCorruptions scheduled for `step_index` to its
  /// live pages / page tables (checksums left stale — real storage upsets).
  void apply_corruptions(GenerationSession& session, std::size_t step_index);
  /// The session's executor for `step_index`, tamper armed with that
  /// step's emulated faults.
  [[nodiscard]] GuardedExecutor make_step_executor(
      const GenerationSession& session, std::size_t step_index) const;
  /// Folds one pass's protected-op accounting into the session (shared by
  /// decode steps and resume re-prefills, which produce no new token).
  void absorb_report(GenerationSession& session, ModelReport report,
                     double service_us);
  /// Folds one control-plane/scrub LayerReport into the session.
  void absorb_control(GenerationSession& session, LayerReport report);
  /// Guarded verify of the session's sealed metadata (repairs from the
  /// mirror on alarm). Clean verifies are counted but stay out of the op
  /// stream; alarmed ones report through the session like any guarded op.
  bool verify_meta(GenerationSession& session);
  /// The scrubber's walk list: one item per weight part, one metadata item
  /// plus one kKvPage item per layer for every running session, and one
  /// per idle shared-prefix page. Items verify-and-heal and attribute
  /// findings to the owning session, which they look up by sched_order
  /// when they run (a walk spans ticks).
  [[nodiscard]] std::vector<scrub::ScrubItem> scrub_items();
  /// The running session `order` if the scrub should walk it now; null
  /// once it left the run set or when this tick's sweep verified it.
  [[nodiscard]] GenerationSession* scrub_target(std::uint64_t order) const;
  /// One scrub slice, then the counters are republished.
  void scrub_slice();
  /// True while admitted sessions remain anywhere. Caller holds mutex_.
  [[nodiscard]] bool has_work() const;
  /// Folds one step's results into the session; true if it is done.
  bool absorb_step(GenerationSession& session, StepResult step,
                   std::size_t batch_size, double service_us);
  void finalize(GenerationSession* session);
  void fail(GenerationSession* session, std::exception_ptr error);
  void publish_page_usage();
  [[nodiscard]] std::size_t content_tokens(
      const GenerationSession& session) const;

  SchedulerConfig cfg_;
  const TransformerModel& model_;
  GuardedExecutor::Options executor_options_;
  SessionTable& sessions_;
  ServeTelemetry& telemetry_;
  KvPagePool pool_;
  /// Runs every control-plane verify and scrub item (meta seals report
  /// through self_verdict, so a tolerance-corrupted checker cannot blind
  /// them).
  GuardedExecutor control_executor_;
  std::unique_ptr<scrub::Scrubber> scrubber_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<GenerationSession*> ready_;  ///< guarded by mutex_.
  bool stop_ = false;                      ///< guarded by mutex_.

  // Scheduler-thread-private state.
  std::deque<GenerationSession*> waiting_;  ///< pageless, ascending age.
  std::vector<GenerationSession*> running_; ///< holding pages, decode-ready.
  std::uint64_t next_order_ = 1;
  std::size_t rotate_ = 0;  ///< round-robin cursor over running_.
  /// sched_order of every session this tick's decode sweep verified.
  std::vector<std::uint64_t> swept_;
  std::size_t stall_ticks_ = 0;  ///< manual mode: no-progress tick streak.
  /// Last published prefix-cache gauges, for delta-triggered flight/trace
  /// events (CoW forks and shared-page heals are pool-internal, so the
  /// scheduler observes them as counter movement at publish points).
  std::uint64_t seen_cow_forks_ = 0;
  std::uint64_t seen_shared_heals_ = 0;

  std::thread thread_;
};

}  // namespace flashabft::serve
