// Checksum-protected paged KV pool — shared serving memory under ABFT.
//
// The one KV store of the stack. Sessions draw fixed-size *pages* from one
// pool shared by every session, so memory follows actual sequence length
// and sessions can be preempted/resumed by releasing/re-acquiring pages
// (single-session generation runs on a private pool of the same kind —
// `KvCache` in model/transformer_model.hpp). Two structures are in the
// fault surface, and both are checksummed:
//
//   * page *contents* — each page keeps running per-column K/V checksums
//     over its used rows (updated O(width) per append) plus a checkpoint
//     mirror. A storage upset between decode steps is caught by the
//     per-page column-sum recomputation, and recovery re-materializes
//     *only the corrupted page* from its mirror.
//   * the page *mapping* — each session×layer page table carries a
//     position-weighted running checksum (sum of (slot+1)·(page_id+1)) and
//     a mirror copy. A corrupted table entry silently redirects reads to a
//     page whose own content checksums may be perfectly self-consistent —
//     only the mapping checksum can see it.
//
// Both are verified together on every decode-step read as one guarded
// `OpKind::kKvPage` op (worst-residual K column primary, worst V column and
// the table pair as extra checks); the retry path restores the table from
// its mirror and re-materializes mismatching pages, so transient upsets
// report kRecovered. A mismatch that survives restoration escalates — the
// checkpoint itself is suspect.
//
// The pool is deliberately single-owner: the continuous scheduler thread is
// the only mutator, so no locking is layered on top (the SessionTable
// bounds admission; the pool bounds memory).
//
// PR 8 adds a *prefix cache* on top of the page pool: full pages produced
// by prefill of a prompt prefix are keyed by a rolling hash of (pool
// config, token-ids-so-far) and registered in a refcounted read-only
// shared-page index. A later session whose prompt hits the index maps the
// shared pages straight into its checksummed page table and skips prefill
// for those tokens; the first append into a shared page forks a private
// copy (copy-on-write from the verified checkpoint mirror), so decode
// never mutates shared state. A shared page carries ONE checksum verified
// by MANY readers; when one reader's restore heals it, the page's
// heal_epoch advances and every other reader's next verify raises an
// epoch-mismatch alarm — alarm-in-every-reader, heal-exactly-once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/flash_abft.hpp"
#include "core/guarded_op.hpp"
#include "tensor/matrix.hpp"

namespace flashabft {

/// Shape of the shared page pool.
struct KvPoolConfig {
  std::size_t num_pages = 64;   ///< pages shared by all sessions/layers.
  std::size_t page_size = 16;   ///< token rows per page.
  std::size_t width = 64;       ///< columns = num_heads * head_dim.
  std::size_t num_layers = 2;   ///< page tables per session.
  bool prefix_cache = false;    ///< enable the shared-prefix page index.
  /// Storage format of the cached K/V rows. Appends round through it
  /// (idempotent for rows already rounded by the projection kernels), the
  /// running page checksums accumulate the rounded — stored — values, and
  /// the page *byte* footprint is accounted at dtype width: bf16/f16 pages
  /// cost half the bytes of f32, so a fixed byte budget holds 2x the pages
  /// (the serving headline DESIGN.md §12 quantifies).
  DType dtype = DType::kF32;

  /// Bytes of one page's live K+V storage at the configured dtype
  /// (mirrors/checksums are emulation bookkeeping, not accounted).
  [[nodiscard]] std::size_t page_bytes() const {
    return 2 * page_size * width * dtype_storage_bytes(dtype);
  }
  /// Live K+V bytes per cached token at the configured dtype.
  [[nodiscard]] std::size_t bytes_per_token() const {
    return 2 * width * dtype_storage_bytes(dtype);
  }
  /// Largest page count a byte budget funds at the configured dtype
  /// (0 budget -> 0 pages; callers treat that as "use num_pages").
  [[nodiscard]] std::size_t pages_for_budget(std::size_t budget_bytes) const {
    return budget_bytes / page_bytes();
  }
};

/// Counters of the shared-prefix cache (monotonic over the pool's life).
struct PrefixCacheStats {
  std::size_t hits = 0;         ///< acquire_prefix calls that mapped pages.
  std::size_t misses = 0;       ///< acquire_prefix calls that found nothing.
  std::size_t hit_tokens = 0;   ///< prompt tokens served from shared pages.
  std::size_t cow_forks = 0;    ///< private copies forked off shared pages.
  std::size_t evictions = 0;    ///< registry entries evicted under pressure.
  std::size_t shared_heals = 0; ///< shared pages re-materialized (heal-once).
};

/// One session's view of the pool: per-layer page tables (the mapping from
/// logical token rows to pool pages) with their running checksums and
/// checkpoint mirrors. Create with `KvPagePool::make_session`; all mutation
/// goes through the pool.
class PagedKv {
 public:
  PagedKv() = default;

  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  /// Cached token rows of layer `layer`.
  [[nodiscard]] std::size_t len(std::size_t layer = 0) const;
  /// Page-table entries (allocated pages) of layer `layer`.
  [[nodiscard]] std::size_t pages(std::size_t layer = 0) const;
  /// Pages held across all layers.
  [[nodiscard]] std::size_t total_pages() const;
  /// Leading token rows of layer `layer` backed by shared prefix pages
  /// (0 once the tail has been forked private, or without a prefix hit).
  [[nodiscard]] std::size_t shared_len(std::size_t layer = 0) const;

 private:
  friend class KvPagePool;
  struct LayerTable {
    std::vector<std::size_t> entries;  ///< live mapping, slot -> page id.
    std::vector<std::size_t> mirror;   ///< checkpoint of the mapping.
    double table_sum = 0.0;            ///< running weighted checksum.
    std::size_t len = 0;               ///< cached token rows.
    /// Last heal_epoch of each mapped page this session has acknowledged
    /// (parallel to `entries`; 0 and unchecked for private slots). A
    /// shared page healed by *another* reader leaves this behind the
    /// page's epoch, which the next verify reports as an alarm.
    std::vector<std::uint64_t> seen_epoch;
    std::size_t shared_rows = 0;       ///< leading rows on shared pages.
  };
  std::uint64_t session_id_ = 0;
  std::vector<LayerTable> layers_;
};

/// The fixed-size page allocator with per-page and per-table checksums.
class KvPagePool {
 public:
  explicit KvPagePool(const KvPoolConfig& cfg);

  [[nodiscard]] const KvPoolConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_pages() const { return pages_.size(); }
  [[nodiscard]] std::size_t free_pages() const { return free_list_.size(); }
  [[nodiscard]] std::size_t pages_in_use() const {
    return pages_.size() - free_list_.size();
  }
  [[nodiscard]] std::size_t peak_pages_in_use() const { return peak_in_use_; }
  /// Pages a new allocation can draw on: the free list plus shared pages
  /// no session maps (those are reclaimed by LRU eviction on demand).
  [[nodiscard]] std::size_t available_pages() const {
    return free_list_.size() + evictable_pages();
  }
  /// Allocated shared pages (mapped by sessions and/or the registry).
  [[nodiscard]] std::size_t shared_pages() const;
  /// Shared pages held only by the registry — evictable under pressure.
  [[nodiscard]] std::size_t evictable_pages() const;
  /// Snapshot of the prefix-cache counters. `shared_heals` is the one
  /// field written off the scheduler thread (a reader's restore during the
  /// parallel decode sweep), so it lives in an atomic and is folded in.
  [[nodiscard]] PrefixCacheStats prefix_stats() const {
    PrefixCacheStats stats = prefix_stats_;
    stats.shared_heals = shared_heals_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Pages one layer needs to hold `tokens` rows.
  [[nodiscard]] std::size_t pages_for_tokens(std::size_t tokens) const {
    return (tokens + cfg_.page_size - 1) / cfg_.page_size;
  }
  /// Pages (across all layers) a session holding `tokens` rows occupies.
  [[nodiscard]] std::size_t session_pages_for(std::size_t tokens) const {
    return cfg_.num_layers * pages_for_tokens(tokens);
  }
  /// Pages (across all layers) the next single-token append will allocate
  /// (zero when every layer still has reserved room).
  [[nodiscard]] std::size_t append_pages_needed(const PagedKv& kv) const;

  /// Pre-allocates the page each layer needs for its next append, so a
  /// subsequent `append` cannot touch the shared free list — what makes
  /// the scheduler's parallel decode sweep race-free. The caller must have
  /// checked `append_pages_needed` against `free_pages`.
  void reserve_append(PagedKv& kv);

  /// A fresh handle with empty tables for every layer.
  [[nodiscard]] PagedKv make_session(std::uint64_t session_id) const;

  /// Appends one token's K/V rows (length = width) to layer `layer`,
  /// allocating a page when the last one is full. The caller must have
  /// checked capacity (`append_pages_needed` / `free_pages`); an exhausted
  /// pool here is a scheduler bug and throws.
  void append(PagedKv& kv, std::size_t layer, std::span<const double> k_row,
              std::span<const double> v_row);

  /// Releases every page the session holds; tables reset to empty (the
  /// preemption path — the session's tokens live elsewhere). Shared pages
  /// only drop this session's ref: while still registered they linger as
  /// evictable cache, so a resumed session can re-resolve its prefix.
  void free_session(PagedKv& kv);

  // --- shared-prefix cache ---
  /// Looks the prompt `content` up in the shared-page index and maps the
  /// longest registered prefix into the (empty) session's page tables,
  /// returning the number of cached token rows (0 on a miss). The mapping
  /// is trimmed to content.size()-1 rows so the session always has at
  /// least one token to prefill — the step that produces its first logits;
  /// a trimmed-away row re-appended by that step is bit-identical (the
  /// model is deterministic), copy-on-write giving it a private home.
  [[nodiscard]] std::size_t acquire_prefix(
      PagedKv& kv, std::span<const std::size_t> content);
  /// Registers the session's prefill pages under the prompt's rolling
  /// hashes — one entry per full-page boundary plus one for the whole
  /// prompt — promoting the backing pages to refcounted read-only shared
  /// pages. Idempotent: already-registered prefixes are skipped.
  void publish_prefix(PagedKv& kv, std::span<const std::size_t> prompt);
  /// Allocated shared pages no session currently maps — the longest-lived
  /// latent-fault surface, walked by the scrubber.
  [[nodiscard]] std::vector<std::size_t> idle_shared_pages() const;
  /// Scrub one shared page: recompute its column sums against the running
  /// checksums and, on mismatch, re-materialize it from the checkpoint
  /// mirror (advancing heal_epoch so mapped readers still alarm). Returns
  /// true iff a latent fault was found and repaired.
  bool scrub_shared_page(std::size_t id);
  /// Sentinel of `share_group` for sessions with no co-reader.
  static constexpr std::size_t kNoShareGroup = std::size_t(-1);
  /// Identity of the shared chain this session reads concurrently with
  /// other sessions (the layer-0 head page id), or kNoShareGroup. Sessions
  /// with equal groups must not be verified/healed in parallel — one
  /// reader's restore writes pages the others read.
  [[nodiscard]] std::size_t share_group(const PagedKv& kv) const;

  /// The kKvPage verification op: recomputes every owned page's column
  /// sums and the page table's weighted sum. `check` carries the
  /// worst-residual K column, `extra_checks` the worst V column and the
  /// table pair. Entries that do not map to a page this session/layer owns
  /// contribute a table mismatch and are skipped for the content scan.
  /// Shared pages healed by another reader since this session last
  /// acknowledged them append an epoch-mismatch pair — the mechanism that
  /// makes one corrupted shared page alarm in every reader.
  [[nodiscard]] CheckedOp verify(const PagedKv& kv, std::size_t layer) const;

  /// Recovery path of a kKvPage alarm: restores the page table from its
  /// mirror, then re-materializes only the pages whose recomputed column
  /// sums mismatch their running checksums. Healing a *shared* page
  /// advances its heal_epoch (so co-readers still alarm) exactly once;
  /// the session then acknowledges the current epochs of every shared
  /// page it maps.
  void restore(PagedKv& kv, std::size_t layer);

  /// MACs-equivalent cost of one verify (the OpReport cost metric).
  [[nodiscard]] double verify_cost(const PagedKv& kv,
                                   std::size_t layer) const {
    return 2.0 * double(kv.len(layer)) * double(cfg_.width);
  }

  // --- reads ---
  /// The layer's pages as K/V chunks in logical row order, rows `width`
  /// apart — the walk the paged attention kernel consumes. Entries that
  /// fail the ownership check are skipped (verification must run — and
  /// restore — before attending).
  [[nodiscard]] std::vector<KvChunk> chunks(const PagedKv& kv,
                                            std::size_t layer) const;

  [[nodiscard]] double k_at(const PagedKv& kv, std::size_t layer,
                            std::size_t row, std::size_t col) const;
  [[nodiscard]] double v_at(const PagedKv& kv, std::size_t layer,
                            std::size_t row, std::size_t col) const;

  // --- fault surfaces ---
  /// Shifts one live element of the page holding logical `row` without
  /// updating its running checksums — a storage upset between decode steps.
  void corrupt_k(PagedKv& kv, std::size_t layer, std::size_t row,
                 std::size_t col, double delta);
  void corrupt_v(PagedKv& kv, std::size_t layer, std::size_t row,
                 std::size_t col, double delta);
  /// Shifts the page-table entry covering logical `row` to another page id
  /// (modulo the pool) without updating the table checksum — the mapping
  /// upset only the table pair can detect.
  void corrupt_page_table(PagedKv& kv, std::size_t layer, std::size_t row,
                          std::size_t shift);
  /// Checksum-state upsets: shift a running per-page column sum (the page
  /// holding logical `row`) or the page table's running weighted sum while
  /// the protected data stays clean — the next verify raises a false alarm
  /// and checkpoint restoration rebuilds the sums.
  void corrupt_page_checksum(PagedKv& kv, std::size_t layer, std::size_t row,
                             std::size_t col, double delta, bool value_side);
  void corrupt_table_checksum(PagedKv& kv, std::size_t layer, double delta);

 private:
  struct Page {
    MatrixD k, v;                ///< live rows, page_size x width.
    MatrixD k_mirror, v_mirror;  ///< checkpoint (verified appends only).
    std::vector<double> k_sum, v_sum;  ///< running column sums, used rows.
    std::size_t used = 0;
    bool allocated = false;
    std::uint64_t owner = 0;      ///< owning session id.
    std::size_t owner_layer = 0;
    bool shared = false;          ///< read-only prefix page, many readers.
    std::size_t session_refs = 0;   ///< sessions currently mapping it.
    std::size_t registry_refs = 0;  ///< shared-prefix entries naming it.
    std::uint64_t heal_epoch = 0;   ///< bumped once per shared-page heal.
  };

  /// One registered prompt prefix: the token ids it covers (the collision
  /// guard for the rolling hash) and, per layer, the pages holding rows
  /// [0, tokens). Page lists are prefix-closed — the entry for a longer
  /// prefix names every page of the shorter ones — so nested prefixes
  /// share pages instead of duplicating them.
  struct SharedEntry {
    std::size_t tokens = 0;
    std::vector<std::size_t> token_ids;
    std::vector<std::vector<std::size_t>> pages;  ///< [layer][slot].
    std::uint64_t lru = 0;  ///< last-touched tick for eviction order.
  };

  /// True iff `id` names a page this session/layer owns (a corrupted table
  /// entry usually fails this). Shared pages are owned by every reader
  /// that maps them at the right layer.
  [[nodiscard]] bool owned(std::size_t id, const PagedKv& kv,
                           std::size_t layer) const;
  [[nodiscard]] std::size_t alloc_page(std::uint64_t owner,
                                       std::size_t layer);
  /// Allocates a page and appends it to the layer's table, mirror and
  /// running mapping checksum — the single grow-by-one-page invariant.
  void grow_table(PagedKv& kv, std::size_t layer);
  void release_page(std::size_t id);
  /// The page and in-page row of logical `row` (through the live table).
  [[nodiscard]] std::pair<std::size_t, std::size_t> locate(
      const PagedKv& kv, std::size_t layer, std::size_t row) const;

  // --- shared-prefix internals ---
  /// Rolling-hash seed over the pool shape (the model-config component of
  /// the prefix key) and its per-token extension.
  [[nodiscard]] std::uint64_t hash_seed() const;
  [[nodiscard]] static std::uint64_t hash_extend(std::uint64_t h,
                                                 std::size_t token);
  /// Makes the page the next append of `layer` writes privately writable:
  /// a no-op for private tails; a shared tail is either taken over in
  /// place (sole unregistered reader) or forked — verified checkpoint rows
  /// copied to a fresh private page, mapping + mirror + table checksum
  /// swapped, the shared ref dropped. Only the session's own rows are
  /// copied, so a trim-mapped tail truncates cleanly.
  void ensure_writable_tail(PagedKv& kv, std::size_t layer);
  /// Rebuilds `page` as a private page holding the first `rows` checkpoint
  /// rows (live = mirror, sums recomputed).
  void truncate_from_mirror(Page& page, std::size_t rows);
  /// Erases the least-recently-used registry entry, releasing any of its
  /// pages that drop to zero refs. Returns false when the index is empty.
  bool evict_lru_entry();
  /// Erases every registry entry whose page list names `id` (the
  /// un-share-in-place path must not leave dangling index entries).
  void drop_entries_referencing(std::size_t id);
  void release_shared_page(std::size_t id);

  KvPoolConfig cfg_;
  std::vector<Page> pages_;
  std::vector<std::size_t> free_list_;
  std::size_t peak_in_use_ = 0;
  std::unordered_map<std::uint64_t, SharedEntry> registry_;
  std::uint64_t lru_tick_ = 0;
  PrefixCacheStats prefix_stats_;
  /// Heals happen inside verify/restore on sweep threads; every other
  /// counter is scheduler-thread-only.
  std::atomic<std::size_t> shared_heals_{0};
};

/// Runs `pool.verify(kv, layer)` as a guarded `kKvPage` op with index
/// `index` (the layer's global op index): attempt 0 checks the live pages
/// and mapping, every retry restores from the checkpoints first, so a
/// transient upset — in a page or in the table — reports kRecovered with
/// the state repaired. No fallback exists; a post-restoration mismatch
/// escalates and is reported dirty. Returns true iff the accepted verdict
/// passed.
bool guarded_page_verify(KvPagePool& pool, PagedKv& kv, std::size_t layer,
                         std::size_t index, const GuardedExecutor& executor,
                         LayerReport& report);

/// Single-query Flash-ABFT over the paged K/V of one head: the chunk kernel
/// (`flash_abft_chunks`) walking the pool's pages with `width`-strided rows
/// at the head's column offset — no gather. `q` is the head's query (1 x
/// head_dim); the pair is that query's (predicted, actual) checksums. Same
/// kernel, same bits as `flash_abft_attention` over the equivalent
/// contiguous K/V, per backend and dtype of `context`.
[[nodiscard]] CheckedOp paged_flash_abft_head(
    const MatrixD& q, std::span<const KvChunk> chunks, std::size_t width,
    std::size_t head, double scale, const KernelContext& context = {});

}  // namespace flashabft
