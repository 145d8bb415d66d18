// Serving demo: the fault-tolerant inference server end to end.
//
//   act 1 — clean traffic: requests batch through the worker pool and
//           complete on the guarded accelerator path.
//   act 2 — a transient upset: one request carries an injected bit flip;
//           the checksum alarms and head re-execution recovers it.
//   act 3 — a persistent defect: worker 0's accelerator gets a stuck-at
//           bit. Its requests exhaust retries, escalate to the reference
//           kernel, and the escalation streak trips the circuit breaker;
//           the worker then serves via fallback until a probe comes back
//           clean.
//   act 4 — full decoder-layer requests: the LayerWork variant runs a
//           protected decoder layer (per-head attention, Q/K/V/output
//           projections and FFN all checked), with an emulated transient
//           fault recovering in place and a persistent one escalating to
//           the verified reference fallback — reported per op kind from
//           the unified OpReport telemetry.
//   act 5 — a corrupted-KV rescue: autoregressive generation sessions run
//           through the same server's continuous-batching scheduler; a
//           storage upset lands in one session's cached K between decode
//           steps, the page checksum alarms on the next read, the page is
//           restored from its checkpoint, and the session finishes with
//           exactly the tokens of an uncorrupted run — the kv_page op kind
//           carries the alarm/recovery in telemetry.
//   act 6 — continuous batching over the paged KV pool: a second server
//           runs with a deliberately tight page pool, so eight concurrent
//           sessions decode in one batched sweep per tick, preempt each
//           other under page pressure and resume losslessly — while one
//           session takes a KV-page *double fault* (page data + its
//           page-table entry corrupted in the same tick), recovered from
//           the page checkpoints with token-for-token parity against its
//           fault-free twin.
//   act 7 — the scrubber heals a latent fault: a session takes a KV upset
//           at the start of a multi-tick idle window. No decode step is
//           there to trip on it — the scrub pass between ticks walks the
//           idle session's pages, finds the stale checksum and
//           re-materializes the page from its checkpoint *before* the
//           session resumes, so the resumed decode reads clean state and
//           the tokens match the clean run exactly. Runs on the
//           tick-stepped continuous engine so the idle window and the
//           scrub pass interleave deterministically; session metadata
//           rides sealed GuardedRecords and the LayerNorm/GELU glue runs
//           dual-modular throughout.
//   act 8 — shared-prefix caching under fire: two sessions carry the same
//           template stem, so the second maps the first's prefill pages
//           (one physical copy, one checksum, two readers) and skips its
//           own prefill. One bit upset lands in the shared page — BOTH
//           readers alarm (the first heals the page and advances its
//           epoch; the co-reader's verify sees the epoch it acknowledged
//           is stale) yet the page is re-materialized exactly once, and
//           both sessions finish with token-for-token parity against the
//           clean run.
//   act 9 — the flight recorder replays a fault's aftermath: a session
//           takes a KV upset with a flight recorder and trace collector
//           attached; after the run the recorder's bounded ring replays
//           the alarm -> recovery sequence in order — the same post-mortem
//           a crashed campaign trial dumps automatically, produced here on
//           demand (--flight-dump=PATH also writes it to a file,
//           --trace=PATH the matching Perfetto trace).
//
// Build & run:  ./build/examples/serving_demo
// Knobs: --threads=N --max-batch=N --batch-deadline-us=N
//        --dtype=f32|bf16|f16 (storage dtype for weights + KV; low
//        precision serves with calibrated checksum tolerances)
//        --inject-faults=BOOL (acts 2-5 faults on/off, default true)
#include <fstream>
#include <future>
#include <iostream>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "fault/calibrate.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "serve/load_driver.hpp"
#include "serve/options.hpp"
#include "serve/server.hpp"
#include "serve/stepper.hpp"
#include "sim/multi_head.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/model_presets.hpp"
#include "workload/promptbench.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;
  using namespace flashabft::serve;

  const CliArgs args(argc, argv);
  CommonServeOptions defaults;
  defaults.max_batch = 4;
  const auto common = parse_common_serve_options(args, defaults);
  if (!common) return 2;
  const std::size_t threads = common->threads;
  const std::size_t max_batch = common->max_batch;
  const bool inject_faults = args.get_bool("inject-faults", true);
  const std::uint64_t seed = 21;
  const std::size_t heads = 2;
  const std::size_t seq_cap = 32;

  const ModelPreset& preset = preset_by_name("bert");
  ServerConfig config =
      make_calibrated_server_config(preset, /*lanes=*/8, seq_cap, seed);
  config.num_workers = threads;
  config.batching.max_batch = max_batch;
  config.batching.batch_deadline =
      std::chrono::microseconds(common->batch_deadline_us);
  // Storage dtype for weights and KV (every act's golden runs use the same
  // dtype, so token-parity checks hold at low precision too).
  config.dtype = common->dtype;
  config.breaker.trip_threshold = 2;
  config.breaker.probe_interval = 3;
  config.layer.model_dim = 128;
  config.layer.num_heads = 4;
  config.layer.head_dim = 32;
  config.layer.ffn_dim = 256;
  config.model.vocab_size = 256;
  config.model.model_dim = 64;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.head_dim = 32;
  config.model.ffn_dim = 128;
  config.model.max_seq_len = 32;
  config.max_sessions = 2;

  InferenceServer server(config);
  const Accelerator accel(config.accel);
  const std::vector<PromptCategory>& categories = prompt_suite();
  const Rng base(seed);
  std::uint64_t next_request = 0;

  const auto make_request = [&](std::size_t category_index) {
    ServeRequest request;
    const PromptCategory& category =
        categories[category_index % categories.size()];
    request.category = category.name;
    AttentionWork work;
    Rng rng = base.derive(++next_request);
    for (std::size_t h = 0; h < heads; ++h) {
      work.heads.push_back(generate_category_inputs(
          category, preset, rng.next_u64(), seq_cap));
    }
    request.work = std::move(work);
    return request;
  };
  const auto make_layer_request = [&]() {
    ServeRequest request;
    request.category = "decoder-layer";
    LayerWork work;
    Rng rng = base.derive(++next_request);
    work.x = MatrixD(16, config.layer.model_dim);
    fill_gaussian(work.x, rng);
    work.memory = MatrixD(8, config.layer.model_dim);
    fill_gaussian(work.memory, rng);
    request.work = std::move(work);
    return request;
  };
  const auto describe = [](const ServeResponse& r) {
    std::cout << "  request " << r.id << ": path=" << serve_path_name(r.path)
              << " worker=" << r.worker_id << " batch=" << r.batch_size
              << " alarms=" << r.counters.alarm_events
              << " op-runs=" << r.counters.op_executions
              << " checksum=" << (r.checksum_clean ? "clean" : "DIRTY")
              << '\n';
    return r.checksum_clean;
  };

  bool all_clean = true;
  // --- act 1: clean traffic batches through the pool. ---
  std::cout << "act 1 — clean traffic (" << threads << " workers, batches up "
            << "to " << max_batch << "):\n";
  {
    std::vector<std::future<ServeResponse>> futures;
    for (std::size_t i = 0; i < 6; ++i) {
      futures.push_back(server.submit(make_request(i)));
    }
    for (auto& f : futures) all_clean = describe(f.get()) && all_clean;
  }

  if (inject_faults) {
    // --- act 2: a transient upset recovers on head re-execution. ---
    std::cout << "\nact 2 — transient bit flip in an output accumulator:\n";
    {
      ServeRequest request = make_request(1);
      AttentionWork& work = std::get<AttentionWork>(request.work);
      InjectedFault flip;
      flip.site = Site{SiteKind::kOutput, /*lane=*/0, /*element=*/0};
      flip.bit = 27;  // fp32 exponent bit: a large, detectable corruption.
      // Mid-pass, so the accumulator is nonzero (at a pass boundary it was
      // just reset, and flipping a bit of 0.0 is a masked denormal).
      flip.cycle = cycles_per_head(accel, work.heads.front()) / 2 +
                   work.heads.front().seq_len() / 2;
      work.faults = {flip};
      all_clean = describe(server.submit(std::move(request)).get()) &&
                  all_clean;
    }

    // --- act 3: a persistent defect trips worker 0's breaker. ---
    std::cout << "\nact 3 — stuck-at defect on worker 0's l register:\n";
    {
      InjectedFault stuck;
      stuck.site = Site{SiteKind::kSumExp, /*lane=*/0, /*element=*/0};
      stuck.bit = 30;
      stuck.type = FaultType::kStuckAt1;
      stuck.cycle = 0;
      stuck.duration = std::size_t(1) << 40;  // the whole run, every run.
      server.set_worker_defect(0, {stuck});
      std::vector<std::future<ServeResponse>> futures;
      for (std::size_t i = 0; i < 10; ++i) {
        futures.push_back(server.submit(make_request(i)));
      }
      for (auto& f : futures) all_clean = describe(f.get()) && all_clean;
      std::cout << "  worker 0 breaker: "
                << (server.worker_breaker_open(0) ? "OPEN" : "closed")
                << " (trips=" << server.worker_breaker_trips(0) << ")\n";
      server.set_worker_defect(0, {});  // the defective unit is replaced...
    }
  }

  // --- act 4: full decoder-layer requests through the same server. ---
  std::cout << "\nact 4 — protected decoder-layer serving ("
            << config.layer.num_heads << " heads x d="
            << config.layer.head_dim << ", ffn " << config.layer.ffn_dim
            << "):\n";
  {
    std::vector<std::future<ServeResponse>> futures;
    for (std::size_t i = 0; i < 4; ++i) {
      futures.push_back(server.submit(make_layer_request()));
    }
    if (inject_faults) {
      // A transient upset in a cross-attention head: recovers in place.
      ServeRequest transient = make_layer_request();
      LayerFault head_fault;
      head_fault.kind = OpKind::kAttentionFlashAbft;
      head_fault.op_index = config.layer.num_heads;  // first cross head.
      head_fault.faulty_attempts = 1;
      std::get<LayerWork>(transient.work).faults = {head_fault};
      futures.push_back(server.submit(std::move(transient)));

      // A persistent defect in the FFN: escalates to the verified fallback.
      ServeRequest persistent = make_layer_request();
      LayerFault ffn_fault;
      ffn_fault.kind = OpKind::kFfn;
      ffn_fault.op_index = 0;
      ffn_fault.faulty_attempts = config.recovery.max_retries + 1;
      std::get<LayerWork>(persistent.work).faults = {ffn_fault};
      futures.push_back(server.submit(std::move(persistent)));
    }
    for (auto& f : futures) all_clean = describe(f.get()) && all_clean;
  }

  // --- act 5: a corrupted KV page rescued mid-generation. ---
  std::cout << "\nact 5 — generation sessions + a corrupted-KV rescue:\n";
  {
    const std::vector<std::size_t> prompt =
        server.model().encode("the quick brown fox jumps over the lazy dog");
    const std::size_t max_new = 5;

    const auto make_generation_request = [&] {
      ServeRequest request;
      request.category = "generation";
      GenerationWork work;
      work.prompt = prompt;
      work.max_new_tokens = max_new;
      request.work = std::move(work);
      return request;
    };
    const auto describe_session = [&](const ServeResponse& r,
                                      const char* label) {
      std::cout << "  session " << r.id << " (" << label << "): tokens [";
      for (std::size_t t = 0; t < r.tokens.size(); ++t) {
        std::cout << (t ? " " : "") << r.tokens[t];
      }
      std::cout << "] path=" << serve_path_name(r.path)
                << " ttft=" << r.ttft_us << "us steps=" << r.decode_steps
                << " alarms=" << r.counters.alarm_events
                << " checksum=" << (r.checksum_clean ? "clean" : "DIRTY")
                << '\n';
      return r.checksum_clean;
    };

    ServeResponse clean_run =
        server.submit(make_generation_request()).get();
    all_clean = describe_session(clean_run, "clean") && all_clean;

    if (inject_faults) {
      ServeRequest corrupted = make_generation_request();
      KvCorruption upset;
      upset.step = 2;   // read by the second decode step...
      upset.layer = 1;  // ...in layer 1's cached K.
      upset.row = 3;
      upset.col = 17;
      upset.delta = 1.5;
      std::get<GenerationWork>(corrupted.work).kv_corruptions = {upset};
      const ServeResponse rescued =
          server.submit(std::move(corrupted)).get();
      all_clean = describe_session(rescued, "KV upset") && all_clean;
      const bool same_tokens = rescued.tokens == clean_run.tokens;
      std::cout << "  page checksum alarmed, restored from checkpoint; "
                   "tokens match clean run: "
                << (same_tokens ? "yes" : "NO (?!)") << '\n';
      all_clean = all_clean && same_tokens &&
                  rescued.path == ServePath::kGuardedRecovered;
    }
  }

  // --- act 6: continuous batching + a KV-page double-fault rescue. ---
  std::cout << "\nact 6 — continuous batching over the paged KV pool "
               "(8 sessions, tight pool):\n";
  {
    ServerConfig continuous = config;
    continuous.max_sessions = 8;
    continuous.model.max_seq_len = 24;
    continuous.scheduler.page_size = 4;
    // 2 layers x 6 pages fits one full session; ~half of what 8 sessions
    // want, so preemption/resume must carry the run.
    continuous.scheduler.num_pages = 26;
    InferenceServer engine(continuous);
    const std::vector<std::size_t> prompt =
        engine.model().encode("paged attention under checksums");
    const std::size_t max_new = 8;

    const auto session_request = [&](bool double_fault) {
      ServeRequest request;
      request.category = "continuous";
      GenerationWork work;
      work.prompt = prompt;
      work.max_new_tokens = max_new;
      if (double_fault && inject_faults) {
        KvCorruption data;
        data.step = 4;
        data.layer = 1;
        data.row = 2;
        data.col = 9;
        data.delta = 2.0;
        KvCorruption table = data;
        table.page_table = true;  // redirect the page-table entry too.
        work.kv_corruptions = {data, table};
      }
      request.work = std::move(work);
      return request;
    };

    std::vector<std::future<ServeResponse>> futures;
    futures.push_back(engine.submit(session_request(/*double_fault=*/true)));
    for (std::size_t i = 1; i < 8; ++i) {
      futures.push_back(engine.submit(session_request(false)));
    }
    std::vector<ServeResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());

    const ServeResponse& faulted = responses.front();
    const ServeResponse& twin = responses[1];  // same prompt, fault-free.
    for (const ServeResponse& r : responses) {
      std::cout << "  session " << r.id << ": path="
                << serve_path_name(r.path) << " tokens=" << r.tokens.size()
                << " preempted=" << r.preemptions << " resumed=" << r.resumes
                << " alarms=" << r.counters.alarm_events
                << " checksum=" << (r.checksum_clean ? "clean" : "DIRTY")
                << '\n';
      all_clean = all_clean && r.checksum_clean;
    }
    const TelemetrySnapshot s = engine.telemetry().snapshot();
    std::cout << "  scheduler: " << s.scheduler_ticks
              << " ticks, batch occupancy "
              << s.batch_occupancy() << ", preemptions " << s.preemptions
              << ", resumes " << s.session_resumes
              << ", peak page utilization " << s.peak_page_utilization()
              << '\n';
    if (inject_faults) {
      const OpKindStats& kv = s.per_kind[std::size_t(OpKind::kKvPage)];
      const bool parity = faulted.tokens == twin.tokens;
      std::cout << "  double fault (page data + page-table entry): kv_page "
                << kv.alarms << " alarm(s), " << kv.recovered
                << " recovered; tokens match fault-free twin: "
                << (parity ? "yes" : "NO (?!)") << '\n';
      all_clean = all_clean && parity && kv.recovered >= 1 &&
                  faulted.path == ServePath::kGuardedRecovered;
    }
    all_clean = all_clean && s.preemptions > 0 && s.session_resumes > 0;
    engine.shutdown();
  }

  // --- act 7: the scrubber heals latent corruption on an idle session. ---
  std::cout << "\nact 7 — background scrub of a latent KV fault during an "
               "idle window:\n";
  {
    // Tick-stepped continuous engine: every scheduler tick runs one
    // deterministic scrub pass, so the idle window and the scrubber
    // interleave reproducibly instead of racing wall-clock threads.
    serve::StepperConfig stepped;
    stepped.page_size = 4;
    stepped.executor_options.dmr_glue = true;  // dual-modular glue ops.
    stepped.executor_options.dtype = common->dtype;
    if (common->dtype != DType::kF32) {
      stepped.executor_options.tolerances =
          derive_tolerances(common->dtype, tolerance_shape_for(config.model));
    }

    const std::vector<std::size_t> prompt =
        server.model().encode("latent faults age quietly");
    const auto session_work = [&](bool latent_fault) {
      GenerationWork work;
      work.prompt = prompt;
      work.max_new_tokens = 7;
      if (latent_fault && inject_faults) {
        KvCorruption dormant;
        dormant.step = 3;  // lands as the session goes idle before step 3.
        dormant.layer = 0;
        dormant.row = 1;
        dormant.col = 5;
        dormant.delta = 2.0;
        dormant.latent = true;
        work.kv_corruptions = {dormant};
        work.latent_idle_ticks = 4;  // the scrubber's window to win.
      }
      return work;
    };

    std::vector<GenerationWork> works = {session_work(/*latent_fault=*/true),
                                         session_work(/*latent_fault=*/false)};
    const std::vector<serve::SteppedSession> sessions =
        serve::run_stepped(server.model(), std::move(works), stepped);
    std::vector<GenerationWork> golden_works = {
        session_work(/*latent_fault=*/false)};
    const std::vector<serve::SteppedSession> golden =
        serve::run_stepped(server.model(), std::move(golden_works), stepped);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const serve::SteppedSession& s = sessions[i];
      std::cout << "  session " << i << (i == 0 ? " (latent fault)" : " (clean)")
                << ": tokens=" << s.tokens.size()
                << " meta-verifies=" << s.counters.meta_verifies
                << " dmr-compares=" << s.counters.dmr_compares
                << " scrub-found=" << s.counters.scrub_faults_found
                << " scrub-repaired=" << s.counters.scrub_repairs
                << " checksum=" << (s.checksum_clean ? "clean" : "DIRTY")
                << '\n';
      all_clean = all_clean && !s.failed && s.checksum_clean;
    }
    if (inject_faults) {
      const bool healed = sessions[0].counters.scrub_faults_found >= 1 &&
                          sessions[0].counters.scrub_repairs >= 1;
      const bool parity = sessions[0].tokens == golden[0].tokens;
      std::cout << "  scrubber healed the dormant upset inside the idle "
                << "window: " << (healed ? "yes" : "NO (?!)")
                << "; tokens match the clean run: "
                << (parity ? "yes" : "NO (?!)") << '\n';
      all_clean = all_clean && healed && parity;
    }
  }

  // --- act 8: one corrupted shared-prefix page, every reader alarms. ---
  std::cout << "\nact 8 — shared-prefix caching: one upset in a shared page, "
               "every reader alarms, one heal:\n";
  {
    serve::StepperConfig stepped;
    stepped.page_size = 4;
    stepped.executor_options.dmr_glue = true;
    stepped.executor_options.dtype = common->dtype;
    if (common->dtype != DType::kF32) {
      stepped.executor_options.tolerances =
          derive_tolerances(common->dtype, tolerance_shape_for(config.model));
    }

    // Two user turns on one template: the prompts share their first 8
    // tokens (two full KV pages), diverging only at the end — the second
    // session maps the first's prefill pages instead of recomputing them.
    const auto session_work = [&](std::size_t last_token) {
      GenerationWork work;
      work.prompt = {5, 40, 2, 19, 33, 8, 14, 27, last_token};
      work.max_new_tokens = 6;
      return work;
    };
    std::vector<GenerationWork> clean = {session_work(3), session_work(9)};
    std::vector<GenerationWork> faulty = clean;
    if (inject_faults) {
      KvCorruption upset;
      upset.step = 2;
      upset.layer = 0;
      upset.row = 1;
      upset.col = 3;
      upset.delta = 0.75;
      upset.shared_prefix = true;  // pinned into the shared template rows.
      faulty[0].kv_corruptions = {upset};
    }
    TelemetrySnapshot clean_telemetry, faulty_telemetry;
    const std::vector<serve::SteppedSession> golden = serve::run_stepped(
        server.model(), std::move(clean), stepped, &clean_telemetry);
    const std::vector<serve::SteppedSession> sessions = serve::run_stepped(
        server.model(), std::move(faulty), stepped, &faulty_telemetry);

    std::cout << "  prefix cache: hits=" << clean_telemetry.prefix_hits
              << " hit-tokens=" << clean_telemetry.prefix_hit_tokens
              << " cow-forks=" << clean_telemetry.prefix_cow_forks
              << " shared-pages=" << clean_telemetry.shared_pages << '\n';
    std::size_t alarmed = 0;
    bool parity = true;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const serve::SteppedSession& s = sessions[i];
      const bool reader_alarmed =
          s.counters.alarm_events > 0 || s.path != ServePath::kGuardedClean;
      if (reader_alarmed) ++alarmed;
      parity = parity && s.tokens == golden[i].tokens;
      std::cout << "  session " << i
                << (i == 0 ? " (upset injected)" : " (co-reader)")
                << ": path=" << serve_path_name(s.path)
                << " alarms=" << s.counters.alarm_events
                << " tokens=" << s.tokens.size()
                << " checksum=" << (s.checksum_clean ? "clean" : "DIRTY")
                << '\n';
      all_clean = all_clean && !s.failed && s.checksum_clean;
    }
    if (inject_faults) {
      const bool heal_once = faulty_telemetry.shared_heals == 1;
      std::cout << "  every reader of the shared page alarmed: "
                << (alarmed == sessions.size() ? "yes" : "NO (?!)")
                << "; page healed exactly once: "
                << (heal_once ? "yes" : "NO (?!)")
                << "; tokens match the clean run: "
                << (parity ? "yes" : "NO (?!)") << '\n';
      all_clean = all_clean && alarmed == sessions.size() && heal_once &&
                  parity;
    }
  }

  // --- act 9: the flight recorder replays a fault's aftermath. ---
  std::cout << "\nact 9 — flight-recorder replay of an injected fault's "
               "protection events:\n";
  {
    obs::FlightRecorder recorder(/*capacity=*/32);
    obs::TraceCollector collector;
    serve::StepperConfig stepped;
    stepped.page_size = 4;
    stepped.executor_options.dtype = common->dtype;
    if (common->dtype != DType::kF32) {
      stepped.executor_options.tolerances =
          derive_tolerances(common->dtype, tolerance_shape_for(config.model));
    }
    stepped.obs.flight = &recorder;
    stepped.obs.trace = &collector;

    GenerationWork work;
    work.prompt = server.model().encode("record the aftermath");
    work.max_new_tokens = 5;
    if (inject_faults) {
      KvCorruption upset;
      upset.step = 2;
      upset.layer = 0;
      upset.row = 1;
      upset.col = 2;
      upset.delta = 1.25;
      work.kv_corruptions = {upset};
    }
    const std::vector<serve::SteppedSession> sessions =
        serve::run_stepped(server.model(), {std::move(work)}, stepped);
    all_clean = all_clean && !sessions[0].failed && sessions[0].checksum_clean;

    // The replay: the same bounded ring a wedged campaign trial dumps on
    // crash_hang, here read back after a recovered fault.
    recorder.dump(std::cout);
    std::cout << "  trace captured " << collector.event_count()
              << " span/instant events across " << collector.thread_count()
              << " thread(s)\n";
    if (inject_faults) {
      bool saw_alarm = false, saw_recovery = false;
      for (const obs::FlightEvent& event : recorder.events()) {
        saw_alarm = saw_alarm || event.kind == obs::FlightEventKind::kAlarm;
        saw_recovery =
            saw_recovery || event.kind == obs::FlightEventKind::kRecovery;
      }
      std::cout << "  replay holds the alarm -> recovery sequence: "
                << (saw_alarm && saw_recovery ? "yes" : "NO (?!)") << '\n';
      all_clean = all_clean && saw_alarm && saw_recovery;
    }
    if (!common->flight_dump_path.empty()) {
      std::ofstream out(common->flight_dump_path);
      recorder.dump(out);
      std::cout << "  wrote " << common->flight_dump_path << '\n';
    }
    if (!common->trace_path.empty()) {
      std::ofstream out(common->trace_path);
      collector.write_chrome_trace(out);
      std::cout << "  wrote " << common->trace_path << '\n';
    }
  }

  const TelemetrySnapshot snapshot = server.telemetry().snapshot();
  server.shutdown();
  std::cout << '\n' << snapshot.render(/*wall_seconds=*/0.0) << '\n';

  std::cout << "per-op-kind accounting (attention vs projection vs FFN):\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKindStats& stats = snapshot.per_kind[k];
    if (stats.checks == 0) continue;
    std::cout << "  " << op_kind_name(OpKind(k)) << ": " << stats.checks
              << " checks, " << stats.alarms << " alarms, "
              << stats.recovered << " recovered, " << stats.escalated
              << " escalated\n";
  }
  std::cout << (all_clean ? "every completed request was checksum-clean\n"
                          : "checksum-dirty responses observed (?!)\n");
  return all_clean ? 0 : 1;
}
