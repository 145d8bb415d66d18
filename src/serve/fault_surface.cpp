#include "serve/fault_surface.hpp"

#include <utility>

namespace flashabft::serve {

void apply_kv_corruptions(const GenerationWork& work, std::size_t step_index,
                          KvPagePool& pool, PagedKv& kv, bool latent) {
  for (const KvCorruption& c : work.kv_corruptions) {
    if (c.step != step_index || c.latent != latent) continue;
    const std::size_t layer = c.layer % kv.num_layers();
    if (kv.len(layer) == 0) continue;
    // Shared-prefix trials pin the upset inside the rows backed by shared
    // pages, so the single corruption is read by every co-reader of the
    // prefix. Falls back to the whole cache when nothing is shared (e.g.
    // the tail was already forked private).
    const std::size_t row_space =
        c.shared_prefix && kv.shared_len(layer) > 0 ? kv.shared_len(layer)
                                                    : kv.len(layer);
    const std::size_t row = c.row % row_space;
    const std::size_t col = c.col % pool.config().width;
    if (c.checksum_state) {
      if (c.page_table) {
        pool.corrupt_table_checksum(kv, layer, c.delta);
      } else {
        pool.corrupt_page_checksum(kv, layer, row, col, c.delta,
                                   c.value_side);
      }
    } else if (c.page_table) {
      if (pool.num_pages() < 2) continue;  // nowhere to redirect to.
      pool.corrupt_page_table(kv, layer, row,
                              1 + c.col % (pool.num_pages() - 1));
    } else if (c.value_side) {
      pool.corrupt_v(kv, layer, row, col, c.delta);
    } else {
      pool.corrupt_k(kv, layer, row, col, c.delta);
    }
  }
}

bool has_latent_corruption(const GenerationWork& work,
                           std::size_t step_index) {
  for (const KvCorruption& c : work.kv_corruptions) {
    if (c.latent && c.step == step_index) return true;
  }
  return false;
}

void apply_session_tampers(const GenerationWork& work, SessionMeta& meta,
                           std::size_t step_index, std::size_t vocab_size) {
  for (const SessionTamper& t : work.tampers) {
    if (t.step != step_index) continue;
    switch (t.target) {
      case SessionTamper::Target::kGeneratedToken:
        if (!meta.tokens.empty() && vocab_size > 0) {
          std::size_t& token = meta.tokens[t.index % meta.tokens.size()];
          token = (token + t.delta) % vocab_size;
        }
        break;
      case SessionTamper::Target::kPromptToken:
        if (!meta.prompt.empty() && vocab_size > 0) {
          std::size_t& token = meta.prompt[t.index % meta.prompt.size()];
          token = (token + t.delta) % vocab_size;
        }
        break;
      case SessionTamper::Target::kMaxNewTokens:
        // Shrink-only (range [1, budget]) so the session still terminates
        // and the engines cannot be driven past max_seq_len.
        if (meta.max_new_tokens > 0) {
          meta.max_new_tokens = 1 + t.delta % meta.max_new_tokens;
        }
        break;
    }
  }
}

GuardedExecutor make_generation_step_executor(
    const GenerationWork& work, std::size_t step_index,
    const GuardedExecutor::Options& options) {
  GuardedExecutor executor(options);
  std::vector<LayerFault> step_faults;
  for (const GenerationStepFault& f : work.faults) {
    if (f.step == step_index) step_faults.push_back(f.fault);
  }
  if (!step_faults.empty()) {
    executor.set_tamper(make_layer_fault_tamper(std::move(step_faults)));
  }
  return executor;
}

}  // namespace flashabft::serve
