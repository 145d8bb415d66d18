// The fault-application surface of the generation engine.
//
// A generation session's injected faults — emulated op upsets, KV storage
// and checksum-state upsets, page-table redirects, session-metadata tampers
// — are applied here, outside the scheduler's tick code, so the whole
// fault model reads in one place.
//
// Step numbering everywhere: 0 = prefill, s >= 1 = the s-th decode step.
#pragma once

#include <cstddef>
#include <vector>

#include "core/guarded_op.hpp"
#include "core/kv_pool.hpp"
#include "core/meta_guard.hpp"
#include "serve/request.hpp"

namespace flashabft::serve {

/// Applies the work's KvCorruptions scheduled for `step_index` to the
/// session's live pages/tables: data, page-table, per-page-checksum and
/// table-checksum upsets. Only corruptions whose `latent` flag matches
/// `latent` are applied: immediate upsets land just before the step's
/// read, latent ones at the start of the session's idle window.
void apply_kv_corruptions(const GenerationWork& work, std::size_t step_index,
                          KvPagePool& pool, PagedKv& kv, bool latent = false);

/// True iff the work schedules a latent corruption exactly at `step_index`
/// (the step whose read the idle window precedes).
[[nodiscard]] bool has_latent_corruption(const GenerationWork& work,
                                         std::size_t step_index);

/// Applies the work's SessionTampers scheduled for `step_index` to the
/// session's sealed metadata fields. `meta` must be the record's `raw()`
/// reference — the write deliberately leaves the seal stale, exactly like
/// the memory upset it models, for the next `guarded_meta_verify` to catch.
/// Token shifts wrap at `vocab_size`; budget tampers shrink (never extend)
/// the budget so a tampered-but-undetected session still terminates.
void apply_session_tampers(const GenerationWork& work, SessionMeta& meta,
                           std::size_t step_index, std::size_t vocab_size);

/// The per-step executor: `options`, with the tamper hook armed iff the
/// work schedules op faults for `step_index`.
[[nodiscard]] GuardedExecutor make_generation_step_executor(
    const GenerationWork& work, std::size_t step_index,
    const GuardedExecutor::Options& options);

}  // namespace flashabft::serve
