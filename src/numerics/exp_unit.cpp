#include "numerics/exp_unit.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include "numerics/float_bits.hpp"

namespace flashabft {
namespace {

// exp(x) = 2^k * 2^f with x*log2(e) = k + f, f in [-0.5, 0.5].
// 2^f approximated by a degree-7 Taylor/Horner polynomial (max error
// ~5e-9 on the reduced interval). Evaluated in double and rounded to fp32 at
// the unit's output, modeling a <=1-ulp hardware exponential.
double exp2_poly(double f) {
  constexpr double c0 = 1.0;
  constexpr double c1 = 0.693147180559945286;   // ln2
  constexpr double c2 = 0.240226506959100712;   // ln2^2/2!
  constexpr double c3 = 0.055504108664821580;   // ln2^3/3!
  constexpr double c4 = 0.009618129107628477;   // ln2^4/4!
  constexpr double c5 = 0.001333355814642844;   // ln2^5/5!
  constexpr double c6 = 0.000154035303933816;   // ln2^6/6!
  constexpr double c7 = 0.000015252733194910;   // ln2^7/7!
  return c0 +
         f * (c1 +
              f * (c2 +
                   f * (c3 + f * (c4 + f * (c5 + f * (c6 + f * c7))))));
}

}  // namespace

float hardware_exp(float x) {
  if (std::isnan(x)) return x;
  constexpr double kLog2e = 1.4426950408889634;
  const double scaled = double(x) * kLog2e;
  // fp32 exponent range: 2^k representable for k in roughly [-126, 127].
  if (scaled > 128.0) return std::numeric_limits<float>::infinity();
  if (scaled < -150.0) return 0.0f;

  const double k = std::nearbyint(scaled);
  const double f = scaled - k;
  const double pow2f = exp2_poly(f);
  // Scale by 2^k through exponent arithmetic, as hardware would; the final
  // float conversion is the unit's output rounding.
  return float(std::ldexp(pow2f, int(k)));
}

}  // namespace flashabft
