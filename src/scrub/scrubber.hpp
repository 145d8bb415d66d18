// KV/weight scrubber — find latent corruption before a read trips on it.
//
// The KV pool, the sealed metadata records and the model weights are all
// verified *on read*: a corrupted page sits undetected until the next
// decode step touches it. For an idle or parked session that window is
// unbounded — exactly the latent-fault exposure disk systems close with a
// patrol scrub. This is that scrub for the serving stack: a walk over
// verify-and-heal items (one weight matrix, a session's pages per layer,
// its sealed metadata, an idle shared-prefix page), advanced one budgeted
// slice per `run_tick()` on the calling thread. The continuous scheduler
// runs one slice at the end of every tick and finishes the walk in its idle
// waits, so scrub work never races a tick and identical inputs replay
// tick-for-tick (the fault campaign's contract).
//
// The scrubber is deliberately generic: the host supplies a provider that
// snapshots the walk list at the start of each walk, and every item is a
// closure that verifies, heals and attributes its own outcome (the
// scheduler's items run guarded_page_verify / guarded_meta_verify /
// guarded_weight_part_verify against the owning session's accounting). The
// scrubber itself only slices, cursors and counts.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/hooks.hpp"

namespace flashabft::scrub {

/// What one verify-and-heal item observed.
enum class ItemOutcome {
  kClean,         ///< checksums verified on the first look.
  kRepaired,      ///< latent fault found and healed from a mirror.
  kUnrepairable,  ///< fault found, heal failed (double fault) — escalated.
  kSkipped,       ///< target gone or already verified this tick; free.
};

/// One unit of scrub work. The closure owns verification, healing and
/// attribution. A walk spans several slices, so it must re-resolve its
/// target when it runs (and return kSkipped if the target is gone).
struct ScrubItem {
  std::function<ItemOutcome()> run;
};

/// Monotonic scrub counters (telemetry's view).
struct ScrubStats {
  std::uint64_t passes = 0;          ///< completed walks.
  std::uint64_t items_scrubbed = 0;  ///< verify-and-heal items executed.
  std::uint64_t faults_found = 0;    ///< items that alarmed (latent faults).
  std::uint64_t repairs = 0;         ///< faults healed from a mirror.
  std::uint64_t unrepairable = 0;    ///< faults that survived the heal.
};

class Scrubber {
 public:
  /// Snapshots the walk list; called when a slice starts a new walk.
  using Provider = std::function<std::vector<ScrubItem>()>;

  struct Options {
    /// Items verified per slice (skipped items are free); 0 = the whole
    /// walk every slice.
    std::size_t budget = 0;
    /// Observability taps: each slice runs under a trace span; repairs and
    /// unrepairable finds go to the flight recorder. All-null = off.
    obs::ObsHooks obs{};
  };

  Scrubber(Provider provider, Options options);

  /// One budgeted slice of the current walk (starting a new one when none
  /// is in progress). Returns the number of items scrubbed.
  std::size_t run_tick();

  /// True while a walk is part-way done: the host's idle loop keeps
  /// slicing until this turns false.
  [[nodiscard]] bool mid_walk() const { return !walk_.empty(); }

  [[nodiscard]] const ScrubStats& stats() const { return stats_; }

 private:
  Provider provider_;
  Options options_;

  std::vector<ScrubItem> walk_;  ///< the current walk; empty between walks.
  std::size_t cursor_ = 0;       ///< next item of walk_.
  ScrubStats stats_;
};

}  // namespace flashabft::scrub
