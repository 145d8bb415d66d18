#include "serve/options.hpp"

#include <chrono>
#include <iostream>

namespace flashabft::serve {

std::optional<CommonServeOptions> parse_common_serve_options(
    const CliArgs& args, CommonServeOptions defaults) {
  CommonServeOptions out = defaults;
  out.threads = args.get_size("threads", defaults.threads);
  out.max_batch = args.get_size("max-batch", defaults.max_batch);
  out.batch_deadline_us =
      args.get_size("batch-deadline-us", defaults.batch_deadline_us);
  out.page_size = args.get_size("page-size", defaults.page_size);
  out.max_batch_tokens =
      args.get_size("max-batch-tokens", defaults.max_batch_tokens);
  out.max_sessions = args.get_size("max-sessions", defaults.max_sessions);
  out.kv_budget_bytes =
      args.get_size("kv-budget-bytes", defaults.kv_budget_bytes);
  out.seed = std::uint64_t(args.get_size("seed", defaults.seed));
  out.preset = args.get_string("preset", defaults.preset);
  out.trace_path = args.get_string("trace", defaults.trace_path);
  out.flight_dump_path =
      args.get_string("flight-dump", defaults.flight_dump_path);

  const std::string dtype_arg =
      args.get_string("dtype", dtype_name(defaults.dtype));
  out.dtype_sweep.clear();
  std::size_t start = 0;
  while (start <= dtype_arg.size()) {
    std::size_t end = dtype_arg.find_first_of("+,", start);
    if (end == std::string::npos) end = dtype_arg.size();
    const std::string token = dtype_arg.substr(start, end - start);
    const std::optional<DType> dtype = parse_dtype(token);
    if (!dtype) {
      std::cerr << "unknown --dtype=" << token
                << " (want f32|bf16|f16, '+'-joinable)\n";
      return std::nullopt;
    }
    out.dtype_sweep.push_back(*dtype);
    start = end + 1;
  }
  out.dtype = out.dtype_sweep.front();
  return out;
}

void apply_common_options(const CommonServeOptions& options,
                          ServerConfig& config) {
  config.num_workers = options.threads;
  config.batching.max_batch = options.max_batch;
  config.batching.batch_deadline =
      std::chrono::microseconds(options.batch_deadline_us);
  config.scheduler.page_size = options.page_size;
  config.scheduler.max_batch_tokens = options.max_batch_tokens;
  config.scheduler.kv_budget_bytes = options.kv_budget_bytes;
  config.max_sessions = options.max_sessions;
  config.dtype = options.dtype;
}

}  // namespace flashabft::serve
