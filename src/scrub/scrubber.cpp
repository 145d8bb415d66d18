#include "scrub/scrubber.hpp"

#include <utility>

#include "common/ensure.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace flashabft::scrub {

Scrubber::Scrubber(Provider provider, Options options)
    : provider_(std::move(provider)), options_(options) {
  FLASHABFT_ENSURE_MSG(provider_, "scrubber needs an item provider");
}

std::size_t Scrubber::run_tick() {
  if (walk_.empty()) {
    walk_ = provider_();
    cursor_ = 0;
    if (walk_.empty()) return 0;
  }
  obs::TraceSpan slice_span(options_.obs.trace, "scrub-pass", "scrub");
  std::size_t done = 0;
  while (cursor_ < walk_.size() &&
         (options_.budget == 0 || done < options_.budget)) {
    const std::size_t slot = cursor_++;
    switch (walk_[slot].run()) {
      case ItemOutcome::kSkipped:
        continue;
      case ItemOutcome::kClean:
        break;
      case ItemOutcome::kRepaired:
        ++stats_.faults_found;
        ++stats_.repairs;
        if (options_.obs.flight != nullptr) {
          options_.obs.flight->record(obs::FlightEventKind::kScrubRepair,
                                      "scrubber", "item", slot);
        }
        break;
      case ItemOutcome::kUnrepairable:
        ++stats_.faults_found;
        ++stats_.unrepairable;
        if (options_.obs.flight != nullptr) {
          options_.obs.flight->record(obs::FlightEventKind::kEscalation,
                                      "scrubber", "unrepairable", slot);
        }
        break;
    }
    ++done;
  }
  stats_.items_scrubbed += done;
  if (cursor_ == walk_.size()) {
    ++stats_.passes;
    walk_.clear();
  }
  return done;
}

}  // namespace flashabft::scrub
