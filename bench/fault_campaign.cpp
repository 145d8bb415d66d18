// Whole-stack serving fault-injection campaign (BENCH_faults.json).
//
// Runs seeded single-fault trials against the real serving stack — the
// continuous-batching scheduler, driven deterministically one tick at a
// time — drawing each trial's fault uniformly over the subsystem site
// registry (weights, activations, KV pages, page tables, scheduler/session
// metadata, checksum state) and over injection time (prefill + every
// decode step), and classifies every trial against a fault-free golden
// run:
//
//   detected_corrected / detected_uncorrected / masked / sdc / crash_hang
//
// Output: per-(subsystem, dtype) detection coverage and SDC rates with
// Wilson 95% intervals, injection-time curves and per-OpKind splits —
// written as JSON for the check_coverage.py CI gate.
//
// Flags (shared serving knobs via serve/options.hpp):
//   --trials=N        trials per subsystem cell (default 1000)
//   --seed=N          campaign seed (default 2026; identical seeds
//                     reproduce identical trial-by-trial outcomes)
//   --sessions=N      concurrent sessions per trial (default 3)
//   --prompt-len=N    prompt tokens per session (default 5)
//   --max-new-tokens=N  greedy tokens per session (default 6)
//   --dtype=SPEC      storage dtypes to sweep, '+'-joined (default
//                     "f32+bf16"; e.g. --dtype=f32, --dtype=f32+bf16+f16)
//   --json=PATH       write the JSON report (the CI gate's candidate)
//   --max-ticks=N     trial watchdog override (0 = derived bound, the
//                     committed-baseline behavior; 1 wedges every trial
//                     into crash_hang — CI's flight-dump forcing knob)
//   --flight-dump=PATH  append every crash_hang trial's flight-recorder
//                     dump here, headed by the injected subsystem and the
//                     trial index

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fault/serve_campaign/report.hpp"
#include "serve/options.hpp"

using namespace flashabft;
using namespace flashabft::serve_campaign;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  serve::CommonServeOptions defaults;
  defaults.seed = 2026;
  const auto common = serve::parse_common_serve_options(args, defaults);
  if (!common) return 2;

  CampaignConfig cfg;
  cfg.trials_per_cell = args.get_size("trials", 1000);
  cfg.seed = common->seed;
  cfg.sessions = args.get_size("sessions", 3);
  cfg.prompt_len = args.get_size("prompt-len", 5);
  cfg.max_new_tokens = args.get_size("max-new-tokens", 6);
  cfg.max_ticks = args.get_size("max-ticks", 0);
  cfg.flight_dump_path = common->flight_dump_path;
  const std::string json_path = args.get_string("json", "");
  const std::vector<DType> dtypes =
      args.has("dtype") ? common->dtype_sweep
                        : std::vector<DType>{DType::kF32, DType::kBf16};

  std::cout << "serving fault campaign: " << cfg.trials_per_cell
            << " trials/cell over " << cfg.sessions << " sessions, seed "
            << cfg.seed << "\n";

  std::vector<CampaignResult> results;
  results.reserve(dtypes.size());
  for (const DType dtype : dtypes) {
    cfg.dtype = dtype;
    std::cout << "\n=== dtype " << dtype_name(dtype) << " ===\n";
    results.push_back(run_campaign(cfg, [](const CellResult& cell) {
      std::cout << "  " << subsystem_name(cell.subsystem) << ": "
                << cell.trials << " trials, coverage "
                << 100.0 * cell.detection_coverage().rate << "%, sdc "
                << 100.0 * cell.sdc_rate().rate << "%\n";
    }));
    std::cout << '\n' << campaign_report_text(results.back());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << '\n';
      return 1;
    }
    out << campaign_report_json(
        std::span<const CampaignResult>(results.data(), results.size()));
    std::cout << "\nwrote " << json_path << '\n';
  }
  return 0;
}
