// protected_inference: the whole pipeline, end to end.
//
//   prompt text -> tokenizer -> embedding + positional encoding
//     -> a stack of encoder layers (paper Fig. 1), every attention head
//        protected by Flash-ABFT
//     -> detection-triggered recovery when a head alarms.
//
// The "hardware fault" is emulated at the head level: on a chosen forward
// pass, one head's attention is corrupted; the per-head checksum flags it
// and the guarded executor re-runs that head.
//
// Build & run:  ./build/examples/protected_inference
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/flash_abft.hpp"
#include "core/guarded_op.hpp"
#include "model/embedding.hpp"
#include "model/encoder_layer.hpp"
#include "tensor/tensor_ops.hpp"

int main() {
  using namespace flashabft;

  const std::string prompt =
      "Transformers and large language models, powered by the attention "
      "mechanism, have transformed numerous AI applications.";

  // --- Front end: tokenize + embed (Fig. 1's input embedding). ---
  const std::size_t model_dim = 128;
  const Embedding embedding(/*vocab_size=*/8192, model_dim, /*seed=*/3);
  const std::vector<std::string> tokens = tokenize(prompt);
  MatrixD x = embedding.embed(tokens);
  std::cout << "prompt tokens: " << tokens.size() << ", embedding "
            << x.rows() << " x " << x.cols() << "\n\n";

  // --- A 4-layer encoder stack with protected attention. ---
  EncoderLayerConfig lcfg;
  lcfg.model_dim = model_dim;
  lcfg.num_heads = 8;
  lcfg.head_dim = 16;
  lcfg.ffn_dim = 4 * model_dim;
  Rng rng(17);
  std::vector<EncoderLayer> stack;
  for (int layer = 0; layer < 4; ++layer) stack.emplace_back(lcfg, rng);

  const GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{});
  std::size_t total_alarms = 0;
  for (std::size_t layer = 0; layer < stack.size(); ++layer) {
    const EncoderLayerResult out =
        stack[layer].forward(x, AttentionBackend::kFlashAbft, executor);
    total_alarms += out.report.alarm_events();
    std::cout << "layer " << layer << ": " << out.report.ops.size()
              << " ops checked ("
              << out.report.count(OpKind::kAttentionFlashAbft)
              << " attention heads), " << out.report.alarm_events()
              << " alarms\n";
    x = out.output;
  }
  std::cout << "clean inference completed, total alarms: " << total_alarms
            << "\n\n";

  // --- Now a faulty accelerator: attempt 0 of one head is corrupted. ---
  // The guarded executor retries and recovers.
  Rng wrng(23);
  AttentionConfig acfg;
  acfg.seq_len = x.rows();
  acfg.head_dim = 32;
  acfg.scale = 1.0 / std::sqrt(32.0);
  MatrixD q(x.rows(), 32), k(x.rows(), 32), v(x.rows(), 32);
  fill_gaussian(q, wrng);
  fill_gaussian(k, wrng);
  fill_gaussian(v, wrng);

  const std::size_t faulty_attempts = 1;
  const GuardedOp guarded = executor.run(
      OpKind::kAttentionFlashAbft, /*index=*/0, /*cost=*/0.0,
      [&](std::size_t attempt) {
        CheckedAttention run = flash_abft_attention(q, k, v, acfg);
        CheckedOp op;
        op.output = std::move(run.output);
        op.check = {run.predicted_checksum, run.actual_checksum};
        if (attempt < faulty_attempts) {
          // Emulate a datapath upset: one output element corrupted, with
          // the actual checksum recomputed the way the readout logic would.
          op.output(2, 7) += 3e-3;
          op.check.actual += 3e-3;
        }
        return op;
      });

  std::cout << "faulty-accelerator run: status="
            << recovery_status_name(guarded.report.recovery) << " after "
            << guarded.report.executions << " execution(s)\n"
            << "final residual: " << guarded.report.residual << '\n';
  return guarded.report.recovery == RecoveryStatus::kRecovered ? 0 : 1;
}
