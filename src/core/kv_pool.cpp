#include "core/kv_pool.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/ensure.hpp"

namespace flashabft {

namespace {

/// Position-weighted mapping checksum term of table slot `slot` holding
/// page `id`. The (slot+1)/(id+1) offsets keep slot 0 / page 0 visible.
double table_term(std::size_t slot, std::size_t id) {
  return double(slot + 1) * double(id + 1);
}

}  // namespace

std::size_t PagedKv::len(std::size_t layer) const {
  FLASHABFT_ENSURE(layer < layers_.size());
  return layers_[layer].len;
}

std::size_t PagedKv::pages(std::size_t layer) const {
  FLASHABFT_ENSURE(layer < layers_.size());
  return layers_[layer].entries.size();
}

std::size_t PagedKv::total_pages() const {
  std::size_t total = 0;
  for (const LayerTable& table : layers_) total += table.entries.size();
  return total;
}

std::size_t PagedKv::shared_len(std::size_t layer) const {
  FLASHABFT_ENSURE(layer < layers_.size());
  return layers_[layer].shared_rows;
}

KvPagePool::KvPagePool(const KvPoolConfig& cfg) : cfg_(cfg) {
  FLASHABFT_ENSURE_MSG(cfg.num_pages > 0 && cfg.page_size > 0 &&
                           cfg.width > 0 && cfg.num_layers > 0,
                       "KvPagePool needs pages " << cfg.num_pages << " x rows "
                                                 << cfg.page_size << " x width "
                                                 << cfg.width << " x layers "
                                                 << cfg.num_layers);
  pages_.resize(cfg.num_pages);
  for (Page& page : pages_) {
    page.k = MatrixD(cfg.page_size, cfg.width);
    page.v = MatrixD(cfg.page_size, cfg.width);
    page.k_mirror = MatrixD(cfg.page_size, cfg.width);
    page.v_mirror = MatrixD(cfg.page_size, cfg.width);
    page.k_sum.assign(cfg.width, 0.0);
    page.v_sum.assign(cfg.width, 0.0);
  }
  free_list_.resize(cfg.num_pages);
  // Allocation pops from the back; keep ids ascending for readable tests.
  std::iota(free_list_.rbegin(), free_list_.rend(), std::size_t{0});
}

PagedKv KvPagePool::make_session(std::uint64_t session_id) const {
  PagedKv kv;
  kv.session_id_ = session_id;
  kv.layers_.resize(cfg_.num_layers);
  return kv;
}

bool KvPagePool::owned(std::size_t id, const PagedKv& kv,
                       std::size_t layer) const {
  return id < pages_.size() && pages_[id].allocated &&
         pages_[id].owner_layer == layer &&
         (pages_[id].shared || pages_[id].owner == kv.session_id_);
}

std::size_t KvPagePool::alloc_page(std::uint64_t owner, std::size_t layer) {
  // Under pressure the registry is cache, not commitment: evict LRU
  // prefix entries until a page frees up (or the index is drained).
  while (free_list_.empty() && evict_lru_entry()) {
  }
  FLASHABFT_ENSURE_MSG(!free_list_.empty(),
                       "KV pool exhausted: " << pages_.size()
                                             << " pages all in use");
  const std::size_t id = free_list_.back();
  free_list_.pop_back();
  Page& page = pages_[id];
  page.used = 0;
  page.allocated = true;
  page.owner = owner;
  page.owner_layer = layer;
  page.shared = false;
  page.session_refs = 0;
  page.registry_refs = 0;
  page.heal_epoch = 0;
  std::fill(page.k_sum.begin(), page.k_sum.end(), 0.0);
  std::fill(page.v_sum.begin(), page.v_sum.end(), 0.0);
  peak_in_use_ = std::max(peak_in_use_, pages_in_use());
  return id;
}

void KvPagePool::release_page(std::size_t id) {
  FLASHABFT_ENSURE(id < pages_.size() && pages_[id].allocated);
  pages_[id].allocated = false;
  pages_[id].used = 0;
  free_list_.push_back(id);
}

std::size_t KvPagePool::append_pages_needed(const PagedKv& kv) const {
  std::size_t needed = 0;
  for (const PagedKv::LayerTable& table : kv.layers_) {
    if (table.len == table.entries.size() * cfg_.page_size) {
      ++needed;
      continue;
    }
    if (!cfg_.prefix_cache || table.entries.empty()) continue;
    // A shared tail page forces a copy-on-write fork before the append —
    // one fresh page — unless this session is its sole, unregistered
    // reader (taken over in place, no allocation).
    const std::size_t id = table.entries[table.len / cfg_.page_size];
    if (id >= pages_.size() || !pages_[id].allocated) continue;
    const Page& page = pages_[id];
    if (page.shared && (page.registry_refs > 0 || page.session_refs > 1)) {
      ++needed;
    }
  }
  return needed;
}

void KvPagePool::grow_table(PagedKv& kv, std::size_t layer) {
  PagedKv::LayerTable& table = kv.layers_[layer];
  const std::size_t id = alloc_page(kv.session_id_, layer);
  table.entries.push_back(id);
  table.mirror.push_back(id);
  table.seen_epoch.push_back(0);  // private slots carry no heal epoch.
  table.table_sum += table_term(table.entries.size() - 1, id);
}

void KvPagePool::reserve_append(PagedKv& kv) {
  for (std::size_t layer = 0; layer < kv.layers_.size(); ++layer) {
    const PagedKv::LayerTable& table = kv.layers_[layer];
    if (table.len == table.entries.size() * cfg_.page_size) {
      grow_table(kv, layer);
      continue;
    }
    // Fork shared tails here, on the scheduler thread: the parallel decode
    // sweep must never touch the free list or the shared-page registry.
    if (cfg_.prefix_cache) ensure_writable_tail(kv, layer);
  }
}

void KvPagePool::append(PagedKv& kv, std::size_t layer,
                        std::span<const double> k_row,
                        std::span<const double> v_row) {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  FLASHABFT_ENSURE_MSG(k_row.size() == cfg_.width && v_row.size() == cfg_.width,
                       "KV row width " << k_row.size() << "/" << v_row.size()
                                       << " != pool width " << cfg_.width);
  PagedKv::LayerTable& table = kv.layers_[layer];
  if (table.len == table.entries.size() * cfg_.page_size) {
    grow_table(kv, layer);
  } else if (cfg_.prefix_cache) {
    // Direct (non-reserved) appends — the cached-prefill path — handle
    // copy-on-write themselves; a no-op when the tail is already private.
    ensure_writable_tail(kv, layer);
  }
  Page& page = pages_[table.entries[table.len / cfg_.page_size]];
  const std::size_t r = table.len % cfg_.page_size;
  for (std::size_t c = 0; c < cfg_.width; ++c) {
    // Storage rounding: the paged (and mirrored, and checksummed) value is
    // the dtype-representable one — a no-op for kF32 and for rows already
    // rounded by the projection kernels.
    const double k_val = dtype_round(k_row[c], cfg_.dtype);
    const double v_val = dtype_round(v_row[c], cfg_.dtype);
    page.k(r, c) = k_val;
    page.v(r, c) = v_val;
    page.k_mirror(r, c) = k_val;
    page.v_mirror(r, c) = v_val;
    page.k_sum[c] += k_val;
    page.v_sum[c] += v_val;
  }
  ++page.used;
  ++table.len;
}

void KvPagePool::free_session(PagedKv& kv) {
  for (PagedKv::LayerTable& table : kv.layers_) {
    // Release through the *mirror* mapping: it is the verified copy, so a
    // live-table corruption cannot leak pages (or free a foreign one).
    for (const std::size_t id : table.mirror) {
      if (id >= pages_.size() || !pages_[id].allocated) continue;
      Page& page = pages_[id];
      if (page.shared) {
        // Drop this reader's ref; a still-registered page lingers as
        // evictable cache so a resumed session can re-resolve its prefix.
        FLASHABFT_ENSURE(page.session_refs > 0);
        --page.session_refs;
        if (page.session_refs == 0 && page.registry_refs == 0) {
          release_shared_page(id);
        }
      } else if (page.owner == kv.session_id_) {
        release_page(id);
      }
    }
    table.entries.clear();
    table.mirror.clear();
    table.seen_epoch.clear();
    table.table_sum = 0.0;
    table.len = 0;
    table.shared_rows = 0;
  }
}

std::uint64_t KvPagePool::hash_seed() const {
  // FNV-1a over the pool shape: pages from a differently-shaped pool (a
  // different model) can never collide with this one's keys.
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = hash_extend(h, cfg_.page_size);
  h = hash_extend(h, cfg_.width);
  h = hash_extend(h, cfg_.num_layers);
  // Pages filled at one storage dtype must never satisfy a prefix lookup
  // from a pool running another.
  h = hash_extend(h, std::size_t(cfg_.dtype));
  return h;
}

std::uint64_t KvPagePool::hash_extend(std::uint64_t h, std::size_t token) {
  return (h ^ (std::uint64_t(token) + 1)) * 0x100000001b3ull;
}

std::size_t KvPagePool::shared_pages() const {
  std::size_t n = 0;
  for (const Page& page : pages_) n += page.allocated && page.shared;
  return n;
}

std::size_t KvPagePool::evictable_pages() const {
  std::size_t n = 0;
  for (const Page& page : pages_) {
    n += page.allocated && page.shared && page.session_refs == 0 &&
         page.registry_refs > 0;
  }
  return n;
}

void KvPagePool::release_shared_page(std::size_t id) {
  pages_[id].shared = false;
  release_page(id);
}

bool KvPagePool::evict_lru_entry() {
  auto victim = registry_.end();
  for (auto it = registry_.begin(); it != registry_.end(); ++it) {
    if (victim == registry_.end() || it->second.lru < victim->second.lru) {
      victim = it;
    }
  }
  if (victim == registry_.end()) return false;
  for (const std::vector<std::size_t>& layer_pages : victim->second.pages) {
    for (const std::size_t id : layer_pages) {
      Page& page = pages_[id];
      FLASHABFT_ENSURE(page.registry_refs > 0);
      --page.registry_refs;
      if (page.registry_refs == 0 && page.session_refs == 0) {
        release_shared_page(id);
      }
    }
  }
  registry_.erase(victim);
  ++prefix_stats_.evictions;
  return true;
}

void KvPagePool::drop_entries_referencing(std::size_t id) {
  for (auto it = registry_.begin(); it != registry_.end();) {
    bool names_page = false;
    for (const std::vector<std::size_t>& layer_pages : it->second.pages) {
      for (const std::size_t pid : layer_pages) names_page |= pid == id;
    }
    if (!names_page) {
      ++it;
      continue;
    }
    for (const std::vector<std::size_t>& layer_pages : it->second.pages) {
      for (const std::size_t pid : layer_pages) {
        Page& page = pages_[pid];
        FLASHABFT_ENSURE(page.registry_refs > 0);
        --page.registry_refs;
        if (pid != id && page.registry_refs == 0 && page.session_refs == 0) {
          release_shared_page(pid);
        }
      }
    }
    it = registry_.erase(it);
  }
}

void KvPagePool::truncate_from_mirror(Page& page, std::size_t rows) {
  FLASHABFT_ENSURE(rows <= cfg_.page_size);
  page.used = rows;
  std::fill(page.k_sum.begin(), page.k_sum.end(), 0.0);
  std::fill(page.v_sum.begin(), page.v_sum.end(), 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cfg_.width; ++c) {
      page.k(r, c) = page.k_mirror(r, c);
      page.v(r, c) = page.v_mirror(r, c);
      page.k_sum[c] += page.k(r, c);
      page.v_sum[c] += page.v(r, c);
    }
  }
}

void KvPagePool::ensure_writable_tail(PagedKv& kv, std::size_t layer) {
  PagedKv::LayerTable& table = kv.layers_[layer];
  if (table.entries.empty() ||
      table.len == table.entries.size() * cfg_.page_size) {
    return;  // the next append grows a fresh private page.
  }
  const std::size_t slot = table.len / cfg_.page_size;
  const std::size_t old_id = table.entries[slot];
  if (old_id >= pages_.size() || !pages_[old_id].allocated ||
      !pages_[old_id].shared) {
    return;
  }
  Page& old_page = pages_[old_id];
  // The session's logical rows in this page — a trim-mapped tail uses
  // fewer rows than the page stores, and only those survive the fork.
  const std::size_t rows = table.len - slot * cfg_.page_size;
  if (old_page.registry_refs == 0 && old_page.session_refs == 1) {
    // Sole reader of an unregistered page (its prefix entries were
    // evicted): take it over in place — no copy, no allocation.
    old_page.shared = false;
    old_page.session_refs = 0;
    old_page.owner = kv.session_id_;
    old_page.owner_layer = layer;
    truncate_from_mirror(old_page, rows);
  } else {
    // Copy-on-write: fork this session's rows from the verified
    // checkpoint mirror into a fresh private page, swap the mapping (live
    // table, mirror and running checksum together), drop the shared ref.
    // The original page stays registered for future readers.
    const std::size_t new_id = alloc_page(kv.session_id_, layer);
    Page& new_page = pages_[new_id];
    new_page.used = rows;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cfg_.width; ++c) {
        const double kx = old_page.k_mirror(r, c);
        const double vx = old_page.v_mirror(r, c);
        new_page.k(r, c) = kx;
        new_page.v(r, c) = vx;
        new_page.k_mirror(r, c) = kx;
        new_page.v_mirror(r, c) = vx;
        new_page.k_sum[c] += kx;
        new_page.v_sum[c] += vx;
      }
    }
    table.table_sum += table_term(slot, new_id) - table_term(slot, old_id);
    table.entries[slot] = new_id;
    table.mirror[slot] = new_id;
    ++prefix_stats_.cow_forks;
    FLASHABFT_ENSURE(old_page.session_refs > 0);
    --old_page.session_refs;
    if (old_page.session_refs == 0 && old_page.registry_refs == 0) {
      release_shared_page(old_id);
    }
  }
  if (slot < table.seen_epoch.size()) table.seen_epoch[slot] = 0;
  table.shared_rows = std::min(table.shared_rows, slot * cfg_.page_size);
}

std::size_t KvPagePool::acquire_prefix(PagedKv& kv,
                                       std::span<const std::size_t> content) {
  if (!cfg_.prefix_cache || content.size() < 2 || registry_.empty()) {
    if (cfg_.prefix_cache) ++prefix_stats_.misses;
    return 0;
  }
  for (const PagedKv::LayerTable& table : kv.layers_) {
    FLASHABFT_ENSURE_MSG(table.entries.empty() && table.len == 0,
                         "acquire_prefix needs an empty session");
  }
  // Longest registered prefix of `content`, extending the rolling hash a
  // token at a time; the stored token ids guard against hash collisions.
  const SharedEntry* best = nullptr;
  std::uint64_t best_key = 0;
  std::uint64_t h = hash_seed();
  for (std::size_t n = 1; n <= content.size(); ++n) {
    h = hash_extend(h, content[n - 1]);
    const auto it = registry_.find(h);
    if (it == registry_.end() || it->second.tokens != n) continue;
    if (!std::equal(it->second.token_ids.begin(),
                    it->second.token_ids.end(), content.begin())) {
      continue;
    }
    best = &it->second;
    best_key = it->first;
  }
  // Trim to content.size()-1 rows: the session must prefill at least one
  // token to produce its first logits. The trimmed-away row re-appended
  // by that step is bit-identical (deterministic model), so state after
  // the copy-on-write fork equals a full private prefill.
  const std::size_t len =
      best ? std::min(best->tokens, content.size() - 1) : 0;
  if (len == 0) {
    ++prefix_stats_.misses;
    return 0;
  }
  const std::size_t map_pages = pages_for_tokens(len);
  for (std::size_t layer = 0; layer < kv.layers_.size(); ++layer) {
    PagedKv::LayerTable& table = kv.layers_[layer];
    for (std::size_t slot = 0; slot < map_pages; ++slot) {
      const std::size_t id = best->pages[layer][slot];
      Page& page = pages_[id];
      ++page.session_refs;
      table.entries.push_back(id);
      table.mirror.push_back(id);
      table.seen_epoch.push_back(page.heal_epoch);
      table.table_sum += table_term(slot, id);
    }
    table.len = len;
    table.shared_rows = len;
  }
  registry_[best_key].lru = ++lru_tick_;
  ++prefix_stats_.hits;
  prefix_stats_.hit_tokens += len;
  return len;
}

void KvPagePool::publish_prefix(PagedKv& kv,
                                std::span<const std::size_t> prompt) {
  if (!cfg_.prefix_cache || prompt.empty()) return;
  for (const PagedKv::LayerTable& table : kv.layers_) {
    if (table.len < prompt.size()) return;  // prefill must cover the prompt.
  }
  std::uint64_t h = hash_seed();
  std::vector<std::size_t> ids;
  ids.reserve(prompt.size());
  for (std::size_t n = 1; n <= prompt.size(); ++n) {
    h = hash_extend(h, prompt[n - 1]);
    ids.push_back(prompt[n - 1]);
    // Register every full-page boundary (partial hits for diverging
    // prompts) plus the whole prompt (the identical-prompt fast path).
    if (n % cfg_.page_size != 0 && n != prompt.size()) continue;
    if (registry_.count(h) != 0) continue;  // already published.
    const std::size_t pages_per_layer = pages_for_tokens(n);
    SharedEntry entry;
    entry.tokens = n;
    entry.token_ids = ids;
    entry.pages.resize(cfg_.num_layers);
    bool mappable = true;
    for (std::size_t layer = 0; layer < cfg_.num_layers && mappable;
         ++layer) {
      const PagedKv::LayerTable& table = kv.layers_[layer];
      for (std::size_t slot = 0; slot < pages_per_layer; ++slot) {
        const std::size_t id = table.entries[slot];
        if (!owned(id, kv, layer)) {
          mappable = false;
          break;
        }
        entry.pages[layer].push_back(id);
      }
    }
    if (!mappable) continue;
    for (std::size_t layer = 0; layer < cfg_.num_layers; ++layer) {
      PagedKv::LayerTable& table = kv.layers_[layer];
      for (std::size_t slot = 0; slot < pages_per_layer; ++slot) {
        Page& page = pages_[entry.pages[layer][slot]];
        if (!page.shared) {
          // Promote in place: the publisher becomes the first reader.
          page.shared = true;
          page.session_refs = 1;
          if (slot < table.seen_epoch.size()) {
            table.seen_epoch[slot] = page.heal_epoch;
          }
        }
        ++page.registry_refs;
      }
      // Every leading row living on a now-shared page (the promoted tail
      // may hold rows past the entry; they share its fate on a heal).
      table.shared_rows =
          std::max(table.shared_rows,
                   std::min(table.len, pages_per_layer * cfg_.page_size));
    }
    entry.lru = ++lru_tick_;
    registry_.emplace(h, std::move(entry));
  }
}

std::vector<std::size_t> KvPagePool::idle_shared_pages() const {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < pages_.size(); ++id) {
    const Page& page = pages_[id];
    if (page.allocated && page.shared && page.session_refs == 0) {
      out.push_back(id);
    }
  }
  return out;
}

bool KvPagePool::scrub_shared_page(std::size_t id) {
  FLASHABFT_ENSURE(id < pages_.size());
  Page& page = pages_[id];
  if (!page.allocated || !page.shared) return false;
  bool dirty = false;
  for (std::size_t c = 0; c < cfg_.width && !dirty; ++c) {
    double sum_k = 0.0;
    double sum_v = 0.0;
    for (std::size_t r = 0; r < page.used; ++r) {
      sum_k += page.k(r, c);
      sum_v += page.v(r, c);
    }
    dirty = sum_k != page.k_sum[c] || sum_v != page.v_sum[c];
  }
  if (!dirty) return false;
  truncate_from_mirror(page, page.used);
  ++page.heal_epoch;  // any reader that maps it later re-acknowledges.
  shared_heals_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t KvPagePool::share_group(const PagedKv& kv) const {
  // Sessions share pages only through prefix-closed chains, so any two
  // co-readers both map the chain's head page (the one holding row 0):
  // the layer-0 slot-0 page id identifies the whole group. A head with a
  // single reader means every shared page of this session has a single
  // reader — no cross-session hazard.
  if (kv.layers_.empty() || kv.layers_[0].entries.empty()) {
    return kNoShareGroup;
  }
  const std::size_t id = kv.layers_[0].entries[0];
  if (id >= pages_.size() || !pages_[id].allocated) return kNoShareGroup;
  const Page& page = pages_[id];
  return page.shared && page.session_refs >= 2 ? id : kNoShareGroup;
}

CheckedOp KvPagePool::verify(const PagedKv& kv, std::size_t layer) const {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  const PagedKv::LayerTable& table = kv.layers_[layer];
  CheckedOp op;
  op.output = MatrixD(1, 1);

  ChecksumPair worst_k{0.0, 0.0};
  ChecksumPair worst_v{0.0, 0.0};
  bool first = true;
  double table_actual = 0.0;
  std::vector<double> actual_k(cfg_.width);
  std::vector<double> actual_v(cfg_.width);
  for (std::size_t slot = 0; slot < table.entries.size(); ++slot) {
    const std::size_t id = table.entries[slot];
    table_actual += table_term(slot, id);
    // A mapping upset usually lands on a page this session does not own;
    // its contents are not scanned (they may belong to another session) —
    // the table pair carries the alarm.
    if (!owned(id, kv, layer)) continue;
    const Page& page = pages_[id];
    std::fill(actual_k.begin(), actual_k.end(), 0.0);
    std::fill(actual_v.begin(), actual_v.end(), 0.0);
    // Row-outer raw scan in append order: a clean page reproduces its
    // running sums bit-for-bit, and this loop runs on every decode step of
    // every session — no per-element bounds checks.
    const double* k_data = page.k.flat().data();
    const double* v_data = page.v.flat().data();
    for (std::size_t r = 0; r < page.used; ++r) {
      const double* k_row = k_data + r * cfg_.width;
      const double* v_row = v_data + r * cfg_.width;
      for (std::size_t c = 0; c < cfg_.width; ++c) {
        actual_k[c] += k_row[c];
        actual_v[c] += v_row[c];
      }
    }
    for (std::size_t c = 0; c < cfg_.width; ++c) {
      const ChecksumPair pair_k{page.k_sum[c], actual_k[c]};
      const ChecksumPair pair_v{page.v_sum[c], actual_v[c]};
      if (first || pair_k.residual() > worst_k.residual()) worst_k = pair_k;
      if (first || pair_v.residual() > worst_v.residual()) worst_v = pair_v;
      first = false;
    }
  }
  op.check = worst_k;
  op.extra_checks.push_back(worst_v);
  op.extra_checks.push_back({table.table_sum, table_actual});
  // Shared pages healed by a co-reader since this session last
  // acknowledged them: the content scan above sees the *repaired* data —
  // clean — so the alarm rides on an epoch pair instead. Pushed only on
  // mismatch, so a clean verify keeps its two-extra-checks shape.
  if (cfg_.prefix_cache) {
    for (std::size_t slot = 0; slot < table.entries.size(); ++slot) {
      const std::size_t id = table.entries[slot];
      if (!owned(id, kv, layer) || !pages_[id].shared) continue;
      const std::uint64_t seen =
          slot < table.seen_epoch.size() ? table.seen_epoch[slot] : 0;
      if (seen != pages_[id].heal_epoch) {
        op.extra_checks.push_back(
            {double(pages_[id].heal_epoch), double(seen)});
      }
    }
  }
  return op;
}

void KvPagePool::restore(PagedKv& kv, std::size_t layer) {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  PagedKv::LayerTable& table = kv.layers_[layer];
  // Mapping first: content restoration must walk the verified table.
  table.entries = table.mirror;
  table.table_sum = 0.0;
  for (std::size_t slot = 0; slot < table.entries.size(); ++slot) {
    table.table_sum += table_term(slot, table.entries[slot]);
  }
  for (const std::size_t id : table.entries) {
    FLASHABFT_ENSURE(owned(id, kv, layer));
    Page& page = pages_[id];
    bool dirty = false;
    for (std::size_t c = 0; c < cfg_.width && !dirty; ++c) {
      double sum_k = 0.0;
      double sum_v = 0.0;
      for (std::size_t r = 0; r < page.used; ++r) {
        sum_k += page.k(r, c);
        sum_v += page.v(r, c);
      }
      dirty = sum_k != page.k_sum[c] || sum_v != page.v_sum[c];
    }
    if (!dirty) continue;  // only the corrupted page is re-materialized.
    for (std::size_t r = 0; r < page.used; ++r) {
      for (std::size_t c = 0; c < cfg_.width; ++c) {
        page.k(r, c) = page.k_mirror(r, c);
        page.v(r, c) = page.v_mirror(r, c);
      }
    }
    for (std::size_t c = 0; c < cfg_.width; ++c) {
      double sum_k = 0.0;
      double sum_v = 0.0;
      for (std::size_t r = 0; r < page.used; ++r) {
        sum_k += page.k(r, c);
        sum_v += page.v(r, c);
      }
      page.k_sum[c] = sum_k;
      page.v_sum[c] = sum_v;
    }
    if (page.shared) {
      // Heal-once: the first reader to restore repairs the shared page
      // and advances its epoch; every other reader finds clean content
      // but a stale acknowledged epoch — alarm without a second heal.
      ++page.heal_epoch;
      shared_heals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Acknowledge the current epoch of every shared page this session maps
  // (whether this restore healed it or a co-reader's did).
  if (cfg_.prefix_cache) {
    for (std::size_t slot = 0; slot < table.entries.size(); ++slot) {
      const std::size_t id = table.entries[slot];
      if (slot < table.seen_epoch.size() && owned(id, kv, layer) &&
          pages_[id].shared) {
        table.seen_epoch[slot] = pages_[id].heal_epoch;
      }
    }
  }
}

std::vector<KvChunk> KvPagePool::chunks(const PagedKv& kv,
                                        std::size_t layer) const {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  const PagedKv::LayerTable& table = kv.layers_[layer];
  std::vector<KvChunk> out;
  out.reserve(table.entries.size());
  std::size_t remaining = table.len;
  for (const std::size_t id : table.entries) {
    if (!owned(id, kv, layer)) continue;
    const Page& page = pages_[id];
    const std::size_t rows = std::min(remaining, page.used);
    if (rows == 0) break;
    out.push_back({page.k.flat().data(), page.v.flat().data(), rows});
    remaining -= rows;
  }
  return out;
}

std::pair<std::size_t, std::size_t> KvPagePool::locate(
    const PagedKv& kv, std::size_t layer, std::size_t row) const {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  const PagedKv::LayerTable& table = kv.layers_[layer];
  FLASHABFT_ENSURE_MSG(row < table.len, "row " << row << " outside cache of "
                                               << table.len << " tokens");
  const std::size_t slot = row / cfg_.page_size;
  FLASHABFT_ENSURE(slot < table.entries.size());
  return {table.entries[slot], row % cfg_.page_size};
}

double KvPagePool::k_at(const PagedKv& kv, std::size_t layer, std::size_t row,
                        std::size_t col) const {
  FLASHABFT_ENSURE(col < cfg_.width);
  const auto [id, pr] = locate(kv, layer, row);
  return pages_[id].k(pr, col);
}

double KvPagePool::v_at(const PagedKv& kv, std::size_t layer, std::size_t row,
                        std::size_t col) const {
  FLASHABFT_ENSURE(col < cfg_.width);
  const auto [id, pr] = locate(kv, layer, row);
  return pages_[id].v(pr, col);
}

void KvPagePool::corrupt_k(PagedKv& kv, std::size_t layer, std::size_t row,
                           std::size_t col, double delta) {
  FLASHABFT_ENSURE(col < cfg_.width);
  const auto [id, pr] = locate(kv, layer, row);
  pages_[id].k(pr, col) += delta;
}

void KvPagePool::corrupt_v(PagedKv& kv, std::size_t layer, std::size_t row,
                           std::size_t col, double delta) {
  FLASHABFT_ENSURE(col < cfg_.width);
  const auto [id, pr] = locate(kv, layer, row);
  pages_[id].v(pr, col) += delta;
}

void KvPagePool::corrupt_page_table(PagedKv& kv, std::size_t layer,
                                    std::size_t row, std::size_t shift) {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  PagedKv::LayerTable& table = kv.layers_[layer];
  FLASHABFT_ENSURE_MSG(row < table.len, "row " << row << " outside cache of "
                                               << table.len << " tokens");
  FLASHABFT_ENSURE_MSG(shift % pages_.size() != 0,
                       "page-table corruption shift is a no-op");
  const std::size_t slot = row / cfg_.page_size;
  std::size_t& entry = table.entries[slot];
  entry = (entry + shift) % pages_.size();
}

void KvPagePool::corrupt_page_checksum(PagedKv& kv, std::size_t layer,
                                       std::size_t row, std::size_t col,
                                       double delta, bool value_side) {
  FLASHABFT_ENSURE(col < cfg_.width);
  const auto [id, pr] = locate(kv, layer, row);
  (void)pr;
  Page& page = pages_[id];
  (value_side ? page.v_sum : page.k_sum)[col] += delta;
}

void KvPagePool::corrupt_table_checksum(PagedKv& kv, std::size_t layer,
                                        double delta) {
  FLASHABFT_ENSURE(layer < kv.layers_.size());
  kv.layers_[layer].table_sum += delta;
}

bool guarded_page_verify(KvPagePool& pool, PagedKv& kv, std::size_t layer,
                         std::size_t index, const GuardedExecutor& executor,
                         LayerReport& report) {
  GuardedOp op = executor.run(
      OpKind::kKvPage, index, pool.verify_cost(kv, layer),
      [&pool, &kv, layer](std::size_t attempt) {
        if (attempt > 0) pool.restore(kv, layer);
        return pool.verify(kv, layer);
      });
  const bool clean = op.clean();
  report.add(std::move(op));
  return clean;
}

CheckedOp paged_flash_abft_head(const MatrixD& q,
                                std::span<const KvChunk> chunks,
                                std::size_t width, std::size_t head,
                                double scale, const KernelContext& context) {
  FLASHABFT_ENSURE_MSG(q.rows() == 1, "paged decode attends one query, not "
                                          << q.rows());
  FLASHABFT_ENSURE((head + 1) * q.cols() <= width);
  FLASHABFT_ENSURE_MSG(!chunks.empty(), "paged attention over an empty cache");
  AttentionConfig cfg;
  cfg.head_dim = q.cols();
  cfg.scale = scale;
  cfg.seq_len = 0;
  for (const KvChunk& chunk : chunks) cfg.seq_len += chunk.rows;
  FlashAbftOptions options;
  options.context = context;
  CheckedAttention run =
      flash_abft_chunks(q, chunks, width, head * q.cols(), cfg, options);
  CheckedOp op;
  op.output = std::move(run.output);
  op.check = {run.per_query_predicted[0], run.per_query_actual[0]};
  return op;
}

}  // namespace flashabft
