// Closed-loop load driver: replays prompt_suite() traffic through an
// InferenceServer, optionally injecting faults — drawn from the
// accelerator's SiteMap for attention-head requests, or emulated through
// the GuardedExecutor tamper hook for decoder-layer requests.
//
// Closed loop: at most `concurrency` requests are in flight; completing one
// admits the next. That makes offered load self-pacing (the paper's serving
// scenario: saturating traffic, not open-loop overload) and wall time a
// direct throughput measurement.
#pragma once

#include <cstdint>
#include <string>

#include "serve/server.hpp"
#include "sim/site.hpp"
#include "tensor/random.hpp"
#include "workload/model_presets.hpp"

namespace flashabft::serve {

/// What one request of the driven load carries.
enum class RequestMode {
  kAttentionHeads,  ///< AttentionWork through the cycle-level accelerator.
  kDecoderLayer,    ///< LayerWork through the server's protected layer.
  kGeneration,      ///< GenerationWork sessions through the full model.
};

/// Per-request fault injection knobs.
struct FaultInjectionConfig {
  /// Probability a request carries an injected fault.
  double fault_probability = 0.0;
  /// Of injected faults, the fraction modeled persistent: re-applied on
  /// every retry, forcing escalation to the reference fallback.
  double persistent_fraction = 0.25;
  /// Attention mode: where accelerator faults may land. Datapath-only by
  /// default so every alarm traces to a real output corruption.
  SiteMask sites = SiteMask::datapath_only();
  /// Layer/generation modes: emulated checksum shift applied to the
  /// targeted op.
  double layer_fault_magnitude = 1e-3;
  /// Generation mode: of injected faults, the fraction that are KV-cache
  /// storage upsets (detected by the page checksum and restored from the
  /// checkpoint) rather than op tampering. Needs >= 2 generated
  /// tokens to have a decode step that reads the cache.
  double kv_corruption_fraction = 0.5;
  /// Generation mode: element shift of a KV-cache corruption.
  double kv_corruption_delta = 1.0;
  /// Of KV-cache upsets, the fraction redirected at the page *table* (the
  /// pool's mapping state). 0 keeps the original draw stream
  /// bit-identical.
  double page_table_fraction = 0.0;
  /// Of KV-cache upsets, the fraction landing on checksum *state* (running
  /// sums / table checksum) instead of data — the false-alarm recovery
  /// surface. 0 keeps the PR 5 draw stream bit-identical.
  double checksum_state_fraction = 0.0;
  /// Of injected non-KV faults, the fraction that tamper unprotected
  /// session metadata (fed-back tokens, prompt, generation budget) instead
  /// of op outputs. 0 keeps the PR 5 draw stream bit-identical.
  double session_tamper_fraction = 0.0;
};

struct LoadDriverConfig {
  std::size_t total_requests = 100;
  std::size_t concurrency = 8;  ///< closed-loop in-flight window.
  RequestMode mode = RequestMode::kAttentionHeads;
  /// Workload shape (attention mode): per-head inputs come from
  /// prompt_suite() categories round-robin, generated for this preset.
  /// Layer mode draws its row count from the sampled category too;
  /// generation mode only borrows the category names as telemetry tags.
  std::string preset_name = "bert";
  std::size_t heads_per_request = 4;
  /// Clamp on the sampled category's sequence length: attention-mode head
  /// shapes and layer-mode decoder-side rows both follow
  /// min(category.seq_len, seq_len_cap), so load varies per category.
  std::size_t seq_len_cap = 64;
  /// Layer mode: encoder-memory length of each request.
  std::size_t memory_len = 16;
  /// Generation mode: prompt tokens per session (random ids over the
  /// server model's vocab) and greedy tokens to produce.
  std::size_t prompt_len = 12;
  std::size_t max_new_tokens = 6;
  /// Generation mode, "many users, few templates": when > 0, each prompt
  /// draws its first `prefix_len` tokens from one of `templates` shared
  /// template stems (assigned round-robin) and only the remaining
  /// prompt_len - prefix_len tokens independently — the workload the
  /// shared-prefix KV cache exists for. 0 keeps fully independent random
  /// prompts (the PR 5 shape).
  std::size_t templates = 0;
  /// Shared-stem length when `templates` > 0; must be < prompt_len so
  /// every session still has a private suffix to decode from.
  std::size_t prefix_len = 0;
  FaultInjectionConfig inject{};
  std::uint64_t seed = 7;
};

/// What one load run produced, alongside the server's telemetry snapshot
/// (whose per_kind array carries the per-op-kind accounting).
struct LoadReport {
  std::size_t completed = 0;
  std::size_t transient_injected = 0;   ///< requests given a transient fault.
  std::size_t persistent_injected = 0;  ///< requests given a persistent one.
  std::size_t clean_responses = 0;      ///< checksum_clean == true.
  std::size_t guarded_clean = 0;
  std::size_t recovered = 0;
  std::size_t fallback = 0;
  std::size_t tokens_generated = 0;     ///< generation mode only.
  /// Shared-prefix cache outcomes (generation mode on the continuous
  /// scheduler; zero elsewhere): sessions whose prefill was partly served
  /// from the cache, the prefill tokens they skipped, and the TTFT split
  /// between cache-hit and cache-miss sessions — the cached/cold TTFT
  /// ratio is the benchmark's headline number.
  std::size_t prefix_cached_responses = 0;
  std::size_t prefix_cached_tokens = 0;
  double cached_ttft_p50_us = 0.0;      ///< over cache-hit sessions only.
  double uncached_ttft_p50_us = 0.0;    ///< over cache-miss sessions only.
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double tokens_per_second = 0.0;       ///< generation mode only.
  TelemetrySnapshot telemetry;
};

/// Builds a ServerConfig whose accelerator matches `preset` (1/sqrt(d)
/// scaling, `lanes` lanes) with detection thresholds calibrated fault-free
/// over the seq-len-capped prompt suite — ready to serve run_load traffic.
/// Worker/batching/breaker/layer knobs keep their defaults; adjust after.
[[nodiscard]] ServerConfig make_calibrated_server_config(
    const ModelPreset& preset, std::size_t lanes, std::size_t seq_len_cap,
    std::uint64_t seed);

/// Draws a single-fault plan over `map`: uniform (site, bit) weighted by
/// storage width, uniform cycle in [0, total_cycles). Persistent faults are
/// stuck-at for the remainder of the run; transient ones are one bit flip.
[[nodiscard]] FaultPlan draw_fault_plan(const SiteMap& map,
                                        std::size_t total_cycles,
                                        bool persistent, Rng& rng);

/// Draws an emulated fault for a decoder-layer request: a uniformly chosen
/// checkable op (attention head, projection, or FFN product) corrupted for
/// one attempt (transient) or past the retry budget (persistent).
[[nodiscard]] LayerFault draw_layer_fault(const DecoderLayerConfig& layer,
                                          const RecoveryPolicy& recovery,
                                          double magnitude, bool persistent,
                                          Rng& rng);

/// Draws an emulated op fault for one step of a generation session: a
/// uniform step in [0, max_new_tokens) and a uniform checkable op of the
/// stacked model (heads, projections incl. the LM head, FFN products),
/// addressed by its global index.
[[nodiscard]] GenerationStepFault draw_generation_fault(
    const TransformerConfig& model, const RecoveryPolicy& recovery,
    double magnitude, bool persistent, std::size_t max_new_tokens, Rng& rng);

/// Draws a KV-cache storage upset for a generation session: a uniform
/// decode step in [1, max_new_tokens), layer, K/V side and element (row/col
/// are reduced modulo the live cache shape at injection time). The
/// trailing site-class flags retarget the same draw at the page table
/// (`page_table`) or at checksum state (`checksum_state`) — see
/// KvCorruption; defaults preserve the PR 5 data-upset behavior and draw
/// stream.
[[nodiscard]] KvCorruption draw_kv_corruption(const TransformerConfig& model,
                                              std::size_t max_new_tokens,
                                              double delta, Rng& rng,
                                              bool page_table = false,
                                              bool checksum_state = false);

/// Draws a session-metadata tamper for a generation session: a uniform
/// target over the unprotected scheduler/session state — the fed-back
/// generated token (uniform decode step), a prompt token (lands on the
/// prefill) or the generation budget (shrink-only). These sites carry no
/// checksum, so the campaign expects them to surface as SDCs.
[[nodiscard]] SessionTamper draw_session_tamper(std::size_t max_new_tokens,
                                                Rng& rng);

/// Runs the closed loop against `server` (whose accelerator — attention
/// mode — or decoder layer — layer mode — must match the config's shapes)
/// and reports the outcome.
[[nodiscard]] LoadReport run_load(InferenceServer& server,
                                  const LoadDriverConfig& config);

}  // namespace flashabft::serve
