/* One Adam update of n parameters, one pass per element (see adam.py).
   Each element runs the same 14 IEEE operations, in the same order, as
   the whole-array NumPy expressions of the published recurrence; a
   float32 gradient is widened to double first, which is exact.
   Built with -ffp-contract=off, so no multiply-add is fused. */
#include <math.h>
#include <stddef.h>

#define ADAM_STEP(NAME, GRAD)                                                  \
    void NAME(double *restrict p, const GRAD *restrict g, double *restrict m,  \
              double *restrict v, ptrdiff_t n, double b1, double b2,           \
              double c1, double c2, double bc1, double bc2, double lr,         \
              double eps)                                                      \
    {                                                                          \
        for (ptrdiff_t i = 0; i < n; i++) {                                    \
            double gi = g[i];                                                  \
            double mi = m[i] * b1;                                             \
            double vi = v[i] * b2;                                             \
            mi = mi + gi * c1;                                                 \
            vi = vi + (gi * gi) * c2;                                          \
            m[i] = mi;                                                         \
            v[i] = vi;                                                         \
            p[i] = p[i] - ((mi / bc1) * lr) / (sqrt(vi / bc2) + eps);         \
        }                                                                      \
    }

ADAM_STEP(adam_step_f64, double)
ADAM_STEP(adam_step_f32, float)
