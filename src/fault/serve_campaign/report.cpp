#include "fault/serve_campaign/report.hpp"

#include <iomanip>
#include <sstream>

#include "common/ensure.hpp"

namespace flashabft::serve_campaign {

namespace {

const char* time_bucket_name(std::size_t bucket) {
  switch (bucket) {
    case 0: return "prefill";
    case 1: return "decode_q1";
    case 2: return "decode_q2";
    case 3: return "decode_q3";
    case 4: return "decode_q4";
  }
  return "unknown";
}

std::size_t bucket_detected(
    const std::array<std::size_t, kTrialOutcomeCount>& counts) {
  return counts[std::size_t(TrialOutcome::kDetectedCorrected)] +
         counts[std::size_t(TrialOutcome::kDetectedUncorrected)];
}

std::size_t bucket_total(
    const std::array<std::size_t, kTrialOutcomeCount>& counts) {
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  return total;
}

}  // namespace

std::string campaign_report_json(const CampaignResult& result) {
  return campaign_report_json(std::span<const CampaignResult>(&result, 1));
}

std::string campaign_report_json(std::span<const CampaignResult> results) {
  FLASHABFT_ENSURE_MSG(!results.empty(), "no campaign results to report");
  const CampaignConfig& cfg = results.front().config;
  std::string dtype_sweep;
  std::size_t total_cells = 0;
  for (const CampaignResult& result : results) {
    if (!dtype_sweep.empty()) dtype_sweep += '+';
    dtype_sweep += dtype_name(result.config.dtype);
    total_cells += result.cells.size();
  }
  std::ostringstream out;
  out << std::setprecision(10);
  out << "{\n  \"bench\": \"fault_campaign\",\n  \"config\": {\n"
      << "    \"vocab_size\": " << cfg.model.vocab_size << ",\n"
      << "    \"model_dim\": " << cfg.model.model_dim << ",\n"
      << "    \"num_layers\": " << cfg.model.num_layers << ",\n"
      << "    \"num_heads\": " << cfg.model.num_heads << ",\n"
      << "    \"head_dim\": " << cfg.model.head_dim << ",\n"
      << "    \"ffn_dim\": " << cfg.model.ffn_dim << ",\n"
      << "    \"max_seq_len\": " << cfg.model.max_seq_len << ",\n"
      << "    \"model_seed\": " << cfg.model_seed << ",\n"
      << "    \"sessions\": " << cfg.sessions << ",\n"
      << "    \"prompt_len\": " << cfg.prompt_len << ",\n"
      << "    \"max_new_tokens\": " << cfg.max_new_tokens << ",\n"
      << "    \"seed\": " << cfg.seed << ",\n"
      << "    \"page_size\": " << cfg.page_size << ",\n"
      << "    \"num_pages\": " << cfg.num_pages << ",\n"
      << "    \"dtype\": \"" << dtype_sweep << "\"\n"
      << "  },\n  \"trials_per_cell\": " << cfg.trials_per_cell
      << ",\n  \"results\": [\n";
  std::size_t emitted = 0;
  for (const CampaignResult& result : results) {
    const char* cell_dtype = dtype_name(result.config.dtype);
    for (const CellResult& cell : result.cells) {
      const Proportion coverage = cell.detection_coverage();
      const Proportion sdc = cell.sdc_rate();
      // "scheduler" stays part of the cell key check_coverage.py and the
      // committed baselines match on.
      out << "    {\n      \"scheduler\": \"continuous\""
          << ",\n      \"subsystem\": \"" << subsystem_name(cell.subsystem)
          << "\",\n      \"dtype\": \"" << cell_dtype
          << "\",\n      \"trials\": " << cell.trials
          << ",\n      \"scrub_found\": " << cell.scrub_found
          << ",\n      \"outcomes\": {";
      for (std::size_t o = 0; o < kTrialOutcomeCount; ++o) {
        out << (o == 0 ? "" : ", ") << '"'
            << trial_outcome_name(TrialOutcome(o))
            << "\": " << cell.outcomes[o];
      }
      out << "},\n      \"detection_coverage\": " << coverage.rate
          << ",\n      \"coverage_ci_low\": " << coverage.ci_low
          << ",\n      \"coverage_ci_high\": " << coverage.ci_high
          << ",\n      \"sdc_rate\": " << sdc.rate
          << ",\n      \"sdc_ci_low\": " << sdc.ci_low
          << ",\n      \"sdc_ci_high\": " << sdc.ci_high
          << ",\n      \"time_curve\": [";
      bool first = true;
      for (std::size_t b = 0; b < CellResult::kTimeBuckets; ++b) {
        const std::size_t total = bucket_total(cell.by_time[b]);
        if (total == 0) continue;
        out << (first ? "" : ", ") << "{\"bucket\": \""
            << time_bucket_name(b) << "\", \"trials\": " << total
            << ", \"detected\": " << bucket_detected(cell.by_time[b])
            << ", \"sdc\": "
            << cell.by_time[b][std::size_t(TrialOutcome::kSdc)] << '}';
        first = false;
      }
      out << "],\n      \"per_op_kind\": [";
      first = true;
      for (std::size_t k = 0; k < kOpKindCount; ++k) {
        const std::size_t total = bucket_total(cell.by_op_kind[k]);
        if (total == 0) continue;
        out << (first ? "" : ", ") << "{\"kind\": \""
            << op_kind_name(OpKind(k)) << "\", \"trials\": " << total
            << ", \"detected\": " << bucket_detected(cell.by_op_kind[k])
            << ", \"sdc\": "
            << cell.by_op_kind[k][std::size_t(TrialOutcome::kSdc)] << '}';
        first = false;
      }
      ++emitted;
      out << "]\n    }" << (emitted < total_cells ? "," : "") << '\n';
    }
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string campaign_report_text(const CampaignResult& result) {
  std::ostringstream out;
  out << std::left << std::setw(17) << "subsystem" << std::right
      << std::setw(7) << "trials" << std::setw(10) << "det_corr"
      << std::setw(10) << "det_unc" << std::setw(8) << "masked"
      << std::setw(6) << "sdc" << std::setw(7) << "crash" << std::setw(10)
      << "coverage" << std::setw(9) << "sdc%" << '\n';
  for (const CellResult& cell : result.cells) {
    const Proportion coverage = cell.detection_coverage();
    const Proportion sdc = cell.sdc_rate();
    out << std::left << std::setw(17) << subsystem_name(cell.subsystem)
        << std::right << std::setw(7) << cell.trials << std::setw(10)
        << cell.count(TrialOutcome::kDetectedCorrected) << std::setw(10)
        << cell.count(TrialOutcome::kDetectedUncorrected) << std::setw(8)
        << cell.count(TrialOutcome::kMasked) << std::setw(6)
        << cell.count(TrialOutcome::kSdc) << std::setw(7)
        << cell.count(TrialOutcome::kCrashHang) << std::fixed
        << std::setprecision(1) << std::setw(9) << 100.0 * coverage.rate
        << '%' << std::setw(8) << 100.0 * sdc.rate << '%'
        << std::defaultfloat << std::setprecision(6) << '\n';
  }
  return out.str();
}

}  // namespace flashabft::serve_campaign
