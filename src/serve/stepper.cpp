#include "serve/stepper.hpp"

#include <exception>
#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "serve/session.hpp"
#include "serve/telemetry.hpp"

namespace flashabft::serve {

std::vector<SteppedSession> run_stepped(const TransformerModel& model,
                                        std::vector<GenerationWork> works,
                                        const StepperConfig& cfg,
                                        TelemetrySnapshot* telemetry_out) {
  std::vector<SteppedSession> out(works.size());

  const std::size_t max_active =
      cfg.max_active > 0 ? cfg.max_active : works.size();
  SessionTable table(max_active, works.size());
  ServeTelemetry telemetry;
  SchedulerConfig scfg;
  scfg.manual = true;
  scfg.max_batch_tokens = cfg.max_batch_tokens;
  scfg.page_size = cfg.page_size;
  scfg.num_pages = cfg.num_pages;
  scfg.prefix_cache = cfg.prefix_cache;
  scfg.sweep_threads = 1;
  // The full scrub walk every tick: a latent fault is found in the tick
  // it lands, whatever the walk's length.
  scfg.scrub_budget = 0;
  scfg.obs = cfg.obs;
  scfg.obs.profiler = telemetry.op_profiler();
  GuardedExecutor::Options exec_options = cfg.executor_options;
  exec_options.obs = scfg.obs;
  ContinuousScheduler scheduler(scfg, model, exec_options, table,
                                telemetry);

  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(works.size());
  std::size_t total_budget = 0;
  for (std::size_t i = 0; i < works.size(); ++i) {
    total_budget += works[i].max_new_tokens;
    auto session = std::make_unique<GenerationSession>();
    session->id = i;
    session->work = std::move(works[i]);
    session->seal_meta();
    futures.push_back(session->promise.get_future());
    SessionAdmission admission;
    if (!scheduler.admit(session, admission)) {
      session->promise.set_exception(std::make_exception_ptr(
          std::runtime_error("scheduler refused admission")));
    } else if (admission.shed != nullptr) {
      admission.shed->promise.set_exception(std::make_exception_ptr(
          std::runtime_error("session shed at admission")));
    }
  }

  // Tick watchdog: each session needs ~1 tick per token plus prefill and
  // preemption-resume ticks; anything far past that is a wedged engine and
  // becomes the campaign's crash/hang class.
  const std::size_t max_ticks =
      cfg.max_ticks > 0 ? cfg.max_ticks
                        : (total_budget + 4 * works.size()) * 8 + 64;
  std::size_t ticks = 0;
  while (scheduler.run_tick()) {
    if (++ticks > max_ticks) {
      if (cfg.obs.flight != nullptr) {
        cfg.obs.flight->record(obs::FlightEventKind::kHang, "stepper",
                               "tick_budget", ticks - 1);
      }
      scheduler.abort_all("tick budget exceeded");
      break;
    }
  }
  scheduler.shutdown();
  if (telemetry_out != nullptr) *telemetry_out = telemetry.snapshot();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    SteppedSession& result = out[i];
    try {
      ServeResponse response = futures[i].get();
      result.tokens = std::move(response.tokens);
      result.final_logits = std::move(response.final_logits);
      result.path = response.path;
      result.counters = response.counters;
      result.checksum_clean = response.checksum_clean;
    } catch (const std::exception& e) {
      result.failed = true;
      result.error = e.what();
      result.hang = result.error.find("tick budget exceeded") !=
                    std::string::npos;
    } catch (...) {
      result.failed = true;
      result.error = "unknown exception";
    }
  }
  return out;
}

}  // namespace flashabft::serve
