// Shared serving-stack CLI knobs.
//
// serve_throughput, fault_campaign and serving_demo each grew their own
// copies of the same flag set (worker pool shape, batching deadline, paged
// KV geometry, storage dtype, seed, preset) with
// drifting defaults. This helper is the single definition: one struct of
// the common knobs, one parser over CliArgs, and one applier onto a
// ServerConfig — binaries keep only their genuinely private flags.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "numerics/dtype.hpp"
#include "serve/server.hpp"

namespace flashabft::serve {

/// The serving knobs every serving binary shares. Field defaults are the
/// historical serve_throughput defaults; binaries with different historical
/// defaults override them in the `defaults` argument of the parser.
struct CommonServeOptions {
  std::size_t threads = 2;              ///< --threads
  std::size_t max_batch = 8;            ///< --max-batch
  std::size_t batch_deadline_us = 200;  ///< --batch-deadline-us
  std::size_t page_size = 16;           ///< --page-size
  std::size_t max_batch_tokens = 16;    ///< --max-batch-tokens
  std::size_t max_sessions = 8;         ///< --max-sessions
  std::size_t kv_budget_bytes = 0;      ///< --kv-budget-bytes (0 = off)
  DType dtype = DType::kF32;            ///< --dtype (first sweep entry)
  /// Every dtype of a '+'-separated --dtype sweep (e.g. "f32+bf16").
  /// Always non-empty; `dtype` is its first entry. Single-regime binaries
  /// read `dtype`; sweep-capable ones (fault_campaign) iterate this.
  std::vector<DType> dtype_sweep = {DType::kF32};
  std::uint64_t seed = 7;               ///< --seed
  std::string preset = "bert";          ///< --preset
  /// --trace: Chrome/Perfetto trace_event JSON written here after the run
  /// (empty = tracing off; the collector is only constructed when set).
  std::string trace_path{};             ///< --trace
  /// --flight-dump: the flight recorder's last-events ring dumped here on
  /// demand after the run (empty = no recorder).
  std::string flight_dump_path{};       ///< --flight-dump
};

/// Parses the shared flag set on top of `defaults`. An invalid --dtype
/// prints a diagnostic to stderr and returns nullopt so the binary can exit
/// with a usage error.
[[nodiscard]] std::optional<CommonServeOptions> parse_common_serve_options(
    const CliArgs& args, CommonServeOptions defaults = {});

/// Applies the common knobs onto a ServerConfig: worker pool, batching,
/// scheduler geometry (page size, decode-batch cap, KV byte budget),
/// session bound and the storage-dtype regime.
void apply_common_options(const CommonServeOptions& options,
                          ServerConfig& config);

}  // namespace flashabft::serve
