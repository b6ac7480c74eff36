"""Dense pair integrals of the specification statistic: the oracle of the
library's closed-form block values and of the criterion-3b cell.

For a uniform weight on [A, B] the statistic of residuals r is r'Pr with

    P[s, t] = int_A^B K((x_s - v)/h) K((x_t - v)/h) dv,

computed here for every pair at once, as an n x n matrix, and in other
coordinates than the library's ``Kernel.pair_integral``.
"""

import numpy as np
from scipy.special import ndtr


def oracle_pair_matrix(x, h, support, kernel="gaussian"):
    """P for the Gaussian or the Epanechnikov kernel.

    Gaussian: P[s, t] = h exp(-(z_s - z_t)^2 / 4) / (2 sqrt(pi)) * F[s, t],
    with z = x/h, m = (x_s + x_t)/2 and F = Phi(sqrt2 (B - m)/h) -
    Phi(sqrt2 (A - m)/h) the share of the pair's mass inside [A, B].  F is
    1 to double precision when the path stays 6h inside the support, so it
    is only evaluated for paths that the weight truncates, from the tails on
    the far side of the support's centre from m, where they keep their
    digits.

    Epanechnikov: in w = (v - x_s)/h the integrand is 9/16 (1 - w^2)
    (1 - (w - g)^2), g = (x_t - x_s)/h, a quartic integrated in closed form
    over w in [max(-1, g - 1, (A - x_s)/h), min(1, g + 1, (B - x_s)/h)],
    and 0 where that interval is empty.
    """
    lo, hi = support
    if kernel == "epanechnikov":
        g = np.subtract.outer(x, x).T / h  # g[s, t] = (x_t - x_s)/h
        w_lo = np.maximum(np.maximum(-1.0, g - 1.0), ((lo - x) / h)[:, None])
        w_hi = np.minimum(np.minimum(1.0, g + 1.0), ((hi - x) / h)[:, None])

        def antiderivative(w):
            return ((1.0 - g * g) * w + g * w ** 2 - (2.0 - g * g) * w ** 3 / 3.0
                    - g * w ** 4 / 2.0 + w ** 5 / 5.0)

        return np.where(w_lo < w_hi,
                        0.5625 * h * (antiderivative(w_hi) - antiderivative(w_lo)), 0.0)
    z = x / h
    pair = np.subtract.outer(z, z)
    np.square(pair, out=pair)
    pair *= -0.25
    np.exp(pair, out=pair)
    pair *= h / (2.0 * np.sqrt(np.pi))
    if x.min() - lo < 6.0 * h or hi - x.max() < 6.0 * h:
        mid = 0.5 * np.add.outer(x, x)
        upper = np.sqrt(2.0) * (hi - mid) / h
        lower = np.sqrt(2.0) * (lo - mid) / h
        pair *= np.where(mid >= 0.5 * (lo + hi), ndtr(upper) - ndtr(lower),
                         ndtr(-lower) - ndtr(-upper))
    return pair
