#include "core/kernel_context.hpp"

namespace flashabft {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAttentionFlashAbft: return "attention_flash_abft";
    case OpKind::kAttentionTwoStepAbft: return "attention_two_step_abft";
    case OpKind::kProjection: return "projection";
    case OpKind::kFfn: return "ffn";
    case OpKind::kKvPage: return "kv_page";
    case OpKind::kReferenceFallback: return "reference_fallback";
    case OpKind::kControlPlane: return "control_plane";
  }
  return "?";
}

std::optional<OpKind> parse_op_kind(std::string_view name) {
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    if (name == op_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace flashabft
