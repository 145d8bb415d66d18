#include "serve/load_driver.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/ensure.hpp"
#include "fault/calibrate.hpp"
#include "sim/multi_head.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/promptbench.hpp"

namespace flashabft::serve {

ServerConfig make_calibrated_server_config(const ModelPreset& preset,
                                           std::size_t lanes,
                                           std::size_t seq_len_cap,
                                           std::uint64_t seed) {
  ServerConfig config;
  config.accel.lanes = lanes;
  config.accel.head_dim = preset.head_dim;
  config.accel.scale = preset.attention_scale();

  // Fault-free residual calibration over one same-distribution draw per
  // prompt category (capped like the driver's requests, though not the
  // identical inputs), one margin decade above the worst observation.
  std::vector<AttentionInputs> calibration;
  const Rng base(seed);
  std::size_t index = 0;
  for (const PromptCategory& category : prompt_suite()) {
    Rng rng = base.derive(index++);
    calibration.push_back(generate_category_inputs(category, preset,
                                                   rng.next_u64(),
                                                   seq_len_cap));
  }
  config.accel = with_calibrated_thresholds(config.accel, calibration);
  return config;
}

FaultPlan draw_fault_plan(const SiteMap& map, std::size_t total_cycles,
                          bool persistent, Rng& rng) {
  FLASHABFT_ENSURE_MSG(map.total_bits() > 0, "empty fault surface");
  FLASHABFT_ENSURE_MSG(total_cycles > 0, "no cycles to inject into");
  const SiteMap::Draw draw = map.locate(rng.next_below(map.total_bits()));
  const SiteRecord& record = map.records()[draw.record_index];
  InjectedFault fault;
  fault.site = record.site;
  fault.bit = draw.bit;
  fault.cycle = rng.next_below(total_cycles);
  if (persistent) {
    fault.type = rng.next_below(2) == 0 ? FaultType::kStuckAt0
                                        : FaultType::kStuckAt1;
    fault.duration = total_cycles - fault.cycle;
  }
  return {fault};
}

LayerFault draw_layer_fault(const DecoderLayerConfig& layer,
                            const RecoveryPolicy& recovery, double magnitude,
                            bool persistent, Rng& rng) {
  LayerFault fault;
  // Target population mirrors the decoder's op census: 2H attention heads,
  // 8 projections, 2 FFN products.
  const std::size_t heads = 2 * layer.num_heads;
  const std::size_t pick = rng.next_below(heads + 8 + 2);
  if (pick < heads) {
    fault.kind = OpKind::kAttentionFlashAbft;
    fault.op_index = pick;
  } else if (pick < heads + 8) {
    fault.kind = OpKind::kProjection;
    fault.op_index = pick - heads;
  } else {
    fault.kind = OpKind::kFfn;
    fault.op_index = pick - heads - 8;
  }
  fault.faulty_attempts = persistent ? recovery.max_retries + 1 : 1;
  fault.magnitude = magnitude;
  return fault;
}

GenerationStepFault draw_generation_fault(const TransformerConfig& model,
                                          const RecoveryPolicy& recovery,
                                          double magnitude, bool persistent,
                                          std::size_t max_new_tokens,
                                          Rng& rng) {
  GenerationStepFault out;
  out.step = std::size_t(rng.next_below(max_new_tokens));
  // Global-op census of the decoder-only stack: L*H heads, L*4 layer
  // projections + 1 LM head, L*2 FFN products. (kKvPage is excluded —
  // cache faults are injected as real storage upsets, not tampering.)
  const std::size_t heads = model.num_layers * model.num_heads;
  const std::size_t projections = model.num_layers * 4 + 1;
  const std::size_t ffn = model.num_layers * 2;
  const std::size_t pick = rng.next_below(heads + projections + ffn);
  if (pick < heads) {
    out.fault.kind = OpKind::kAttentionFlashAbft;
    out.fault.op_index = pick;
  } else if (pick < heads + projections) {
    out.fault.kind = OpKind::kProjection;
    out.fault.op_index = pick - heads;  // num_layers*4 is the LM head.
  } else {
    out.fault.kind = OpKind::kFfn;
    out.fault.op_index = pick - heads - projections;
  }
  out.fault.faulty_attempts = persistent ? recovery.max_retries + 1 : 1;
  out.fault.magnitude = magnitude;
  return out;
}

KvCorruption draw_kv_corruption(const TransformerConfig& model,
                                std::size_t max_new_tokens, double delta,
                                Rng& rng, bool page_table,
                                bool checksum_state) {
  FLASHABFT_ENSURE_MSG(max_new_tokens >= 2,
                       "a KV corruption needs a decode step to read it");
  KvCorruption out;
  out.step = 1 + std::size_t(rng.next_below(max_new_tokens - 1));
  out.layer = std::size_t(rng.next_below(model.num_layers));
  out.row = std::size_t(rng.next_u64());  // reduced mod len at injection.
  out.col = std::size_t(
      rng.next_below(model.num_heads * model.head_dim));
  out.delta = delta;
  out.value_side = rng.next_below(2) == 1;
  out.page_table = page_table;
  out.checksum_state = checksum_state;
  return out;
}

SessionTamper draw_session_tamper(std::size_t max_new_tokens, Rng& rng) {
  FLASHABFT_ENSURE_MSG(max_new_tokens >= 2,
                       "a token tamper needs a decode step to feed it back");
  SessionTamper out;
  switch (rng.next_below(3)) {
    case 0:
      out.target = SessionTamper::Target::kGeneratedToken;
      // The fed-back token exists from the first decode step on.
      out.step = 1 + std::size_t(rng.next_below(max_new_tokens - 1));
      break;
    case 1:
      out.target = SessionTamper::Target::kPromptToken;
      out.step = 0;  // the prompt is read by the prefill.
      break;
    default:
      out.target = SessionTamper::Target::kMaxNewTokens;
      out.step = std::size_t(rng.next_below(max_new_tokens));
      break;
  }
  out.index = std::size_t(rng.next_u64());  // reduced mod live length.
  out.delta = 1 + std::size_t(rng.next_below(7));
  return out;
}

namespace {

ServeRequest make_attention_request(const LoadDriverConfig& config,
                                    const ModelPreset& preset,
                                    const PromptCategory& category,
                                    const Rng& base, std::size_t serial) {
  ServeRequest request;
  request.id = serial + 1;
  request.category = category.name;
  AttentionWork work;
  work.heads.reserve(config.heads_per_request);
  Rng head_rng = base.derive(serial + 1);
  for (std::size_t h = 0; h < config.heads_per_request; ++h) {
    work.heads.push_back(generate_category_inputs(
        category, preset, head_rng.next_u64(), config.seq_len_cap));
  }
  request.work = std::move(work);
  return request;
}

ServeRequest make_layer_request(const LoadDriverConfig& config,
                                const DecoderLayerConfig& layer,
                                const PromptCategory& category,
                                const Rng& base, std::size_t serial) {
  ServeRequest request;
  request.id = serial + 1;
  request.category = category.name;
  LayerWork work;
  Rng rng = base.derive(serial + 1);
  // Sized from the sampled category (capped), like attention-mode heads —
  // so layer-mode load actually varies across categories.
  const std::size_t rows =
      config.seq_len_cap > 0
          ? std::min(category.seq_len, config.seq_len_cap)
          : category.seq_len;
  work.x = MatrixD(rows, layer.model_dim);
  fill_gaussian(work.x, rng);
  work.memory = MatrixD(config.memory_len, layer.model_dim);
  fill_gaussian(work.memory, rng);
  request.work = std::move(work);
  return request;
}

ServeRequest make_generation_request(const LoadDriverConfig& config,
                                     const TransformerConfig& model,
                                     const PromptCategory& category,
                                     const Rng& base, std::size_t serial) {
  ServeRequest request;
  request.id = serial + 1;
  request.category = category.name;
  GenerationWork work;
  Rng rng = base.derive(serial + 1);
  work.prompt.reserve(config.prompt_len);
  if (config.templates > 0) {
    // Template workload: the stem stream depends only on the template
    // index, so every session of template t carries byte-identical first
    // prefix_len tokens — the shared prefix the KV cache can serve.
    Rng stem_rng = base.derive(0x7E3F1A + serial % config.templates);
    for (std::size_t t = 0; t < config.prefix_len; ++t) {
      work.prompt.push_back(
          std::size_t(stem_rng.next_below(model.vocab_size)));
    }
  }
  while (work.prompt.size() < config.prompt_len) {
    work.prompt.push_back(std::size_t(rng.next_below(model.vocab_size)));
  }
  work.max_new_tokens = config.max_new_tokens;
  request.work = std::move(work);
  return request;
}

}  // namespace

LoadReport run_load(InferenceServer& server, const LoadDriverConfig& config) {
  FLASHABFT_ENSURE_MSG(config.total_requests > 0, "no requests to drive");
  FLASHABFT_ENSURE_MSG(config.concurrency > 0,
                       "concurrency must be positive");
  FLASHABFT_ENSURE_MSG(config.heads_per_request > 0,
                       "requests need at least one head");
  const bool layer_mode = config.mode == RequestMode::kDecoderLayer;
  const bool generation_mode = config.mode == RequestMode::kGeneration;
  const ModelPreset& preset = preset_by_name(config.preset_name);
  if (config.mode == RequestMode::kAttentionHeads) {
    FLASHABFT_ENSURE_MSG(
        preset.head_dim == server.config().accel.head_dim,
        "preset head_dim " << preset.head_dim
                           << " != server accelerator head_dim "
                           << server.config().accel.head_dim);
  }
  if (generation_mode && config.templates > 0) {
    FLASHABFT_ENSURE_MSG(
        config.prefix_len > 0 && config.prefix_len < config.prompt_len,
        "template workload needs 0 < prefix_len (" << config.prefix_len
            << ") < prompt_len (" << config.prompt_len << ")");
  }
  if (generation_mode) {
    FLASHABFT_ENSURE_MSG(config.prompt_len > 0, "empty generation prompt");
    FLASHABFT_ENSURE_MSG(
        config.prompt_len + config.max_new_tokens <=
            server.config().model.max_seq_len,
        "prompt " << config.prompt_len << " + " << config.max_new_tokens
                  << " tokens exceeds model max_seq_len "
                  << server.config().model.max_seq_len);
  }

  const std::vector<PromptCategory>& categories = prompt_suite();
  const Accelerator accel(server.config().accel);
  const SiteMap site_map(server.config().accel, config.inject.sites);
  const Rng base(config.seed);
  Rng inject_rng = base.derive(0xFA117);

  LoadReport report;
  std::vector<double> cached_ttfts, uncached_ttfts;
  const auto absorb = [&](const ServeResponse& response) {
    ++report.completed;
    if (response.checksum_clean) ++report.clean_responses;
    report.tokens_generated += response.tokens.size();
    if (generation_mode) {
      if (response.prefix_cached_tokens > 0) {
        ++report.prefix_cached_responses;
        report.prefix_cached_tokens += response.prefix_cached_tokens;
        cached_ttfts.push_back(response.ttft_us);
      } else {
        uncached_ttfts.push_back(response.ttft_us);
      }
    }
    switch (response.path) {
      case ServePath::kGuardedClean: ++report.guarded_clean; break;
      case ServePath::kGuardedRecovered: ++report.recovered; break;
      case ServePath::kFallbackReference: ++report.fallback; break;
    }
  };

  std::deque<std::future<ServeResponse>> inflight;
  std::size_t submitted = 0;
  const Clock::time_point start = Clock::now();
  while (submitted < config.total_requests || !inflight.empty()) {
    if (submitted < config.total_requests &&
        inflight.size() < config.concurrency) {
      const PromptCategory& category =
          categories[submitted % categories.size()];
      ServeRequest request =
          generation_mode
              ? make_generation_request(config, server.config().model,
                                        category, base, submitted)
          : layer_mode ? make_layer_request(config, server.config().layer,
                                            category, base, submitted)
                       : make_attention_request(config, preset, category,
                                                base, submitted);
      if (config.inject.fault_probability > 0.0 &&
          inject_rng.next_double() < config.inject.fault_probability) {
        bool persistent =
            inject_rng.next_double() < config.inject.persistent_fraction;
        if (generation_mode) {
          GenerationWork& work = std::get<GenerationWork>(request.work);
          const bool corrupt_cache =
              config.max_new_tokens >= 2 &&
              inject_rng.next_double() < config.inject.kv_corruption_fraction;
          if (corrupt_cache) {
            // A storage upset always recovers via the checkpoint —
            // accounted as transient. The page-table / checksum-state site
            // classes only consume draws when their fractions are enabled,
            // so default configs replay the PR 5 stream bit-identically.
            persistent = false;
            const bool page_table =
                config.inject.page_table_fraction > 0.0 &&
                inject_rng.next_double() < config.inject.page_table_fraction;
            const bool checksum_state =
                config.inject.checksum_state_fraction > 0.0 &&
                inject_rng.next_double() <
                    config.inject.checksum_state_fraction;
            work.kv_corruptions.push_back(draw_kv_corruption(
                server.config().model, config.max_new_tokens,
                config.inject.kv_corruption_delta, inject_rng, page_table,
                checksum_state));
          } else if (config.inject.session_tamper_fraction > 0.0 &&
                     config.max_new_tokens >= 2 &&
                     inject_rng.next_double() <
                         config.inject.session_tamper_fraction) {
            // Unprotected-metadata tampers: no checksum covers these, so
            // they are expected SDCs, not recoveries.
            persistent = false;
            work.tampers.push_back(
                draw_session_tamper(config.max_new_tokens, inject_rng));
          } else {
            work.faults.push_back(draw_generation_fault(
                server.config().model, server.config().recovery,
                config.inject.layer_fault_magnitude, persistent,
                config.max_new_tokens, inject_rng));
          }
        } else if (layer_mode) {
          std::get<LayerWork>(request.work)
              .faults.push_back(draw_layer_fault(
                  server.config().layer, server.config().recovery,
                  config.inject.layer_fault_magnitude, persistent,
                  inject_rng));
        } else {
          AttentionWork& work = std::get<AttentionWork>(request.work);
          // Heads of one request share a shape, so the layer-global window
          // is heads * cycles_per_head — the windows run_heads slices.
          const std::size_t layer_cycles =
              config.heads_per_request *
              cycles_per_head(accel, work.heads.front());
          work.faults = draw_fault_plan(site_map, layer_cycles, persistent,
                                        inject_rng);
          work.faults_persistent = persistent;
        }
        ++(persistent ? report.persistent_injected
                      : report.transient_injected);
      }
      inflight.push_back(server.submit(std::move(request)));
      ++submitted;
      continue;
    }
    absorb(inflight.front().get());
    inflight.pop_front();
  }
  const Clock::time_point end = Clock::now();

  report.wall_seconds = std::chrono::duration<double>(end - start).count();
  report.throughput_rps = report.wall_seconds > 0.0
                              ? double(report.completed) / report.wall_seconds
                              : 0.0;
  report.tokens_per_second =
      report.wall_seconds > 0.0
          ? double(report.tokens_generated) / report.wall_seconds
          : 0.0;
  const auto median = [](std::vector<double>& v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  report.cached_ttft_p50_us = median(cached_ttfts);
  report.uncached_ttft_p50_us = median(uncached_ttfts);
  report.telemetry = server.telemetry().snapshot();
  return report;
}

}  // namespace flashabft::serve
