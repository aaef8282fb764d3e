"""Test-side references for Sibson's alpha-mutual information, each
independent of the closed form ``divgauge.sibson_mi`` evaluates:

- :func:`sibson_grid_min` minimizes D_alpha(P_SW || P_S x Q_W) over output
  marginals Q_W on a grid, with two zooms around its incumbent;
- :func:`definition_values` evaluates that divergence with ``renyi`` at the
  closed-form minimizer Q_W* and at a seeded set of other marginals.
"""

import math

import numpy as np

import divgauge as dg
from divgauge._optim import logsumexp
from divgauge.dist import normalized

SIBSON_ZOOMS = 2  # refinements of sibson_grid_min around its incumbent
SIBSON_SHRINK = 20.0  # the factor each refinement divides its step by


def sibson_grid_min(joint: dg.JointFinite, alpha: float, resolution: float = 1e-3) -> float:
    """Direct grid minimization of the order-alpha divergence over output
    marginals: the independent oracle for the Sibson closed form.

    Scans the whole simplex at `resolution`, then zooms SIBSON_ZOOMS times
    around the incumbent, dividing the step by SIBSON_SHRINK each time.
    Supports |W| in {2, 3}, alpha in (1, inf).
    """
    n_w = joint.shape[1]
    assert n_w in (2, 3) and 1.0 < alpha < math.inf and resolution > 0.0
    ms = joint.matrix.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_c = logsumexp(
            alpha * np.log(joint.matrix) + (1.0 - alpha) * np.log(ms)[:, None],
            axis=0,
        )

    def objective(qw: np.ndarray) -> np.ndarray:
        bad = (qw <= 0.0).any(axis=1)
        safe = np.where(qw > 0.0, qw, 1.0)
        terms = log_c[None, :] + (1.0 - alpha) * np.log(safe)
        m = terms.max(axis=1, keepdims=True)
        val = (np.log(np.exp(terms - m).sum(axis=1)) + m[:, 0]) / (alpha - 1.0)
        return np.where(bad, math.inf, val)

    def grid_around(center: np.ndarray, half_width: float, step: float) -> np.ndarray:
        axes = [
            np.arange(
                max(0.0, c - half_width), min(1.0, c + half_width) + step / 2, step
            )
            for c in center[:-1]
        ]
        if n_w == 2:
            x = axes[0]
            pts = np.stack([x, 1.0 - x], axis=1)
        else:
            xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
            x = xx.ravel()
            y = yy.ravel()
            keep = x + y <= 1.0 + 1e-15
            pts = np.stack([x[keep], y[keep], 1.0 - x[keep] - y[keep]], axis=1)
        return np.clip(pts, 0.0, 1.0)

    step = resolution
    center = np.full(n_w, 1.0 / n_w)
    half = 1.0
    best = math.inf
    for _ in range(SIBSON_ZOOMS + 1):
        pts = grid_around(center, half, step)
        vals = objective(pts)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            center = pts[i]
        half = 2.0 * step
        step = step / SIBSON_SHRINK
    return best


def divergence_to_product(joint: dg.JointFinite, alpha: float, qw: np.ndarray) -> float:
    """D_alpha(P_SW || P_S x Q_W) by ``renyi``, the definition's objective."""
    ms = joint.matrix.sum(axis=1)
    p = dg.FiniteDistribution(joint.matrix.ravel())
    q = dg.FiniteDistribution(normalized(np.outer(ms, qw).ravel()))
    return dg.renyi(dg.AbsContPair(p, q), alpha)


def definition_values(
    joint: dg.JointFinite, alpha: float, seed: int, draws: int = 400
) -> tuple[float, np.ndarray]:
    """(D_alpha at Q_W*, D_alpha at `draws` other marginals) for the
    closed-form minimizer Q_W*(w) proportional to
    (sum_s P_S(s) P(w|s)^alpha)^(1/alpha).

    Half the others perturb Q_W* multiplicatively at scales 1e-6 to 1e-1,
    the rest are Dirichlet(1) draws, all from one seeded stream.
    """
    ms = joint.matrix.sum(axis=1)
    cond = joint.matrix / ms[:, None]
    star = normalized((ms @ cond**alpha) ** (1.0 / alpha))
    rng = np.random.default_rng(seed)
    n_near = draws // 2
    scales = np.logspace(-6, -1, n_near)
    near = star * np.exp(scales[:, None] * rng.standard_normal((n_near, star.size)))
    others = np.concatenate([near, rng.dirichlet(np.ones(star.size), draws - n_near)])
    values = np.array([divergence_to_product(joint, alpha, qw) for qw in others])
    return divergence_to_product(joint, alpha, star), values
