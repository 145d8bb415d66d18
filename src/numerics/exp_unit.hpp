// Hardware-style exponential unit model.
//
// FlashAttention accelerators evaluate e^x for x = s_i - m_i <= 0 and
// x = m_{i-1} - m_i <= 0 once per cycle (paper Alg. 2/3). Hardware
// implementations use range reduction to e^x = 2^(x*log2(e)) followed by a
// small polynomial on the fractional part. This model reproduces that
// structure so the simulator's arithmetic error profile resembles an HLS
// datapath rather than libm, while an Exact mode is available for golden
// reference runs.
#pragma once

#include <cmath>

namespace flashabft {

/// Fidelity of the exponential evaluation.
enum class ExpMode {
  kExact,       ///< std::exp in double — golden reference.
  kHardware,    ///< range-reduced degree-5 polynomial in fp32 — datapath model.
};

/// The hardware polynomial path in isolation (fp32 in/out).
[[nodiscard]] float hardware_exp(float x);

/// Evaluates e^x under the given mode. Inputs are expected to be <= 0 in the
/// attention recurrences (max-subtracted); positive inputs still evaluate
/// correctly for robustness under injected faults (a corrupted m register can
/// make s - m positive, and the unit must then saturate/overflow the way
/// fp32 hardware would). Inline: the attention kernels call it once or twice
/// per key.
[[nodiscard]] inline double eval_exp(double x, ExpMode mode) {
  return mode == ExpMode::kHardware ? double(hardware_exp(float(x)))
                                    : std::exp(x);
}

}  // namespace flashabft
