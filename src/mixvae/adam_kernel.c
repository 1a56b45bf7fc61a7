/* One Adam update of n parameters, one pass per element (see adam.py).
   Each element runs the same 14 IEEE operations, in the same order, as
   the whole-array NumPy expressions of the published recurrence; a
   float32 gradient is widened to double first, which is exact. When w
   is not NULL, each new parameter is also stored, rounded to float, in
   w[i]: the float32 shadow that a float32 backward reads.
   Built with -ffp-contract=off, so no multiply-add is fused. */
#include <math.h>
#include <stddef.h>

#define ADAM_LOOP(STORE)                                                       \
    for (ptrdiff_t i = 0; i < n; i++) {                                        \
        double gi = g[i];                                                      \
        double mi = m[i] * b1;                                                 \
        double vi = v[i] * b2;                                                 \
        mi = mi + gi * c1;                                                     \
        vi = vi + (gi * gi) * c2;                                              \
        m[i] = mi;                                                             \
        v[i] = vi;                                                             \
        double pi = p[i] - ((mi / bc1) * lr) / (sqrt(vi / bc2) + eps);        \
        p[i] = pi;                                                             \
        STORE;                                                                 \
    }

#define ADAM_STEP(NAME, GRAD)                                                  \
    void NAME(double *restrict p, const GRAD *restrict g, double *restrict m,  \
              double *restrict v, float *restrict w, ptrdiff_t n, double b1,   \
              double b2, double c1, double c2, double bc1, double bc2,         \
              double lr, double eps)                                           \
    {                                                                          \
        if (w)                                                                 \
            ADAM_LOOP(w[i] = (float)pi)                                        \
        else                                                                   \
            ADAM_LOOP((void)0)                                                 \
    }

ADAM_STEP(adam_step_f64, double)
ADAM_STEP(adam_step_f32, float)
