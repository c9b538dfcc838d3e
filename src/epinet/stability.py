"""Scalable sufficient conditions for almost-sure extinction.

The exact mean-stability test enumerates every graph configuration and dies
combinatorially.  The tests here replace the enumeration with two scalars of
the stationary edge law: lambda_max(abar), the top eigenvalue of the expected
adjacency matrix, and Delta, the largest row sum of the entrywise variances.
A matrix concentration bound then prices the randomness of the switched
graph through the penalty

    f(s) = s + 2 n^2 exp(-3 s^2 / (2 s + 6 Delta)),    s >= 0,

and the epidemic dies out almost surely whenever

    lambda_max(abar) + min_{s >= 0} f(s) < delta / beta.

f is not convex near the origin, but it is convex on [s0, infinity) for a
computable onset s0 and concave before it, so the global minimum is the
smaller of f(0) and a golden-section minimum over the convex piece.  The
same machinery covers weighted networks (variances of the weight chains) and
expected-degree ensembles, where lambda_max(abar) collapses to the ratio
d_tilde = sum(d^2) / sum(d).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .exact import JointChain, expected_lambda_max
from .netmodel import EpidemicParams, StationaryStats
from .spectral import lambda_max_dense

# exp underflows to 0 below roughly exp(-745); clamping keeps f finite and
# monotone instead of raising on extreme (n, Delta) combinations.
EXP_FLOOR = -745.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL = 1e-10

VERDICT_STABLE = "stable-a.s."
VERDICT_INCONCLUSIVE = "inconclusive"


def concentration_penalty(
    s: Union[float, np.ndarray], n: int, delta_u: float
) -> Union[float, np.ndarray]:
    """Evaluate f(s) = s + 2 n^2 exp(-3 s^2 / (2 s + 6 Delta)).

    Accepts a scalar or an array of s values, all required to be >= 0.
    ``delta_u`` may be zero (frozen graph), in which case the exponent is
    read as its limit -3 s / 2 and f(0) = 2 n^2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (delta_u >= 0 and np.isfinite(delta_u)):
        raise ValueError(f"delta_u must be finite and >= 0, got {delta_u}")
    s_arr = np.asarray(s, dtype=float)
    if s_arr.min(initial=np.inf) < 0 and s_arr.size:
        raise ValueError("penalty is only defined for s >= 0")
    denom = 2.0 * s_arr + 6.0 * delta_u
    with np.errstate(invalid="ignore", divide="ignore"):
        expo = np.where(denom > 0, -3.0 * s_arr * s_arr / np.where(denom > 0, denom, 1.0), 0.0)
    expo = np.maximum(expo, EXP_FLOOR)
    out = s_arr + 2.0 * float(n) * float(n) * np.exp(expo)
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(out)
    return out


def _penalty_derivative(s: float, n: int, delta_u: float) -> float:
    """Analytic f'(s) for s > 0."""
    denom = 2.0 * s + 6.0 * delta_u
    expo = max(-3.0 * s * s / denom, EXP_FLOOR)
    dexpo = -6.0 * s * (s + 6.0 * delta_u) / (denom * denom)
    return 1.0 + 2.0 * float(n) * float(n) * math.exp(expo) * dexpo


def convexity_onset(delta_u: float) -> float:
    """Smallest s0 with f convex on [s0, infinity), independent of n.

    After the change of variable t = s + 3 Delta, convexity reduces to
    h(t) = 1.5 t^2 - 13.5 Delta^2 - sqrt(27 Delta^2 t) >= 0, which has a
    single sign change on t >= 3 Delta.  h(3 Delta) < 0 always, so the root
    is bracketed by doubling and then bisected to machine precision.
    """
    if not (delta_u >= 0 and np.isfinite(delta_u)):
        raise ValueError(f"delta_u must be finite and >= 0, got {delta_u}")
    if delta_u == 0.0:
        return 0.0
    c3 = 13.5 * delta_u * delta_u

    def h(t: float) -> float:
        return 1.5 * t * t - c3 - math.sqrt(2.0 * c3 * t)

    lo = 3.0 * delta_u
    hi = 5.0 * delta_u
    for _ in range(4000):
        if h(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the convexity onset")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return max(hi - 3.0 * delta_u, 0.0)


@dataclass(frozen=True)
class PenaltyMinimum:
    """Minimum of the concentration penalty for one (n, Delta) pair."""

    n: int
    delta_uncertainty: float
    f_min: float
    s_star: float
    s0: float


def _golden_min(func, a: float, b: float, tol: float) -> tuple[float, float]:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(500):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = func(d)
    x = 0.5 * (a + b)
    return x, func(x)


def minimize_penalty(n: int, delta_u: float) -> PenaltyMinimum:
    """Global minimum of f over s >= 0.

    f is concave between 0 and the convexity onset s0, so its minimum is
    either at s = 0 or inside the convex tail.  The tail minimum is bracketed
    by doubling until f' > 0 and pinned by golden-section search.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (delta_u >= 0 and np.isfinite(delta_u)):
        raise ValueError(f"delta_u must be finite and >= 0, got {delta_u}")
    s0 = convexity_onset(delta_u)
    f0 = float(concentration_penalty(0.0, n, delta_u))

    hi = s0 + max(delta_u, 1.0)
    for _ in range(300):
        if _penalty_derivative(hi, n, delta_u) > 0.0:
            break
        hi = s0 + 2.0 * (hi - s0)
    else:
        raise RuntimeError("could not bracket the penalty minimum")
    s_star, f_star = _golden_min(
        lambda s: float(concentration_penalty(s, n, delta_u)), s0, hi, GOLDEN_TOL
    )
    if f0 <= f_star:
        s_star, f_star = 0.0, f0
    return PenaltyMinimum(
        n=n, delta_uncertainty=delta_u, f_min=f_star, s_star=s_star, s0=s0
    )


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one sufficient stability test.

    ``stable=True`` certifies almost-sure extinction; ``stable=False`` means
    the test was inconclusive, not that the epidemic survives.  The one
    exception is a frozen graph (delta_uncertainty == 0), where the
    comparison is exact and a note says so.
    """

    test: str
    network_kind: str
    n: int
    beta: float
    delta: float
    threshold: float
    lambda_max_abar: float
    delta_uncertainty: float
    f_min: float
    s_star: float
    s0: float
    lhs: float
    stable: bool
    d_tilde: Optional[float] = None
    max_pair_prob: Optional[float] = None
    invalid_pairs: int = 0
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> str:
        return VERDICT_STABLE if self.stable else VERDICT_INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "network_kind": self.network_kind,
            "n": self.n,
            "beta": self.beta,
            "delta": self.delta,
            "threshold": self.threshold,
            "lambda_max_abar": self.lambda_max_abar,
            "delta_uncertainty": self.delta_uncertainty,
            "f_min": self.f_min,
            "s_star": self.s_star,
            "s0": self.s0,
            "lhs": self.lhs,
            "stable": self.stable,
            "verdict": self.verdict,
            "d_tilde": self.d_tilde,
            "max_pair_prob": self.max_pair_prob,
            "invalid_pairs": self.invalid_pairs,
            "notes": list(self.notes),
        }


def spectral_penalty_report(
    n: int,
    lambda_max_abar: float,
    delta_u: float,
    params: EpidemicParams,
    *,
    network_kind: str = "binary",
    test: str = "spectral-penalty",
    d_tilde: Optional[float] = None,
    max_pair_prob: Optional[float] = None,
    invalid_pairs: int = 0,
    notes: tuple[str, ...] = (),
) -> StabilityReport:
    """Assemble a report from precomputed scalars.

    This is the single entry point behind all the scalable tests: binary,
    weighted, and expected-degree inputs differ only in how lambda_max(abar)
    and Delta are produced.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    threshold = params.threshold
    if delta_u == 0.0:
        f_min, s_star, s0 = 0.0, 0.0, 0.0
        notes = notes + (
            "frozen graph: the eigenvalue comparison is exact, not merely "
            "sufficient",
        )
    else:
        bound = minimize_penalty(n, delta_u)
        f_min, s_star, s0 = bound.f_min, bound.s_star, bound.s0
    lhs = lambda_max_abar + f_min
    return StabilityReport(
        test=test,
        network_kind=network_kind,
        n=n,
        beta=params.beta,
        delta=params.delta,
        threshold=threshold,
        lambda_max_abar=lambda_max_abar,
        delta_uncertainty=delta_u,
        f_min=f_min,
        s_star=s_star,
        s0=s0,
        lhs=lhs,
        stable=bool(lhs < threshold),
        d_tilde=d_tilde,
        max_pair_prob=max_pair_prob,
        invalid_pairs=invalid_pairs,
        notes=notes,
    )


def check_spectral_penalty(
    stats: StationaryStats,
    params: EpidemicParams,
    lambda_max_abar: Optional[float] = None,
) -> StabilityReport:
    """Sufficient extinction test from dense stationary moments.

    Works identically for binary and weighted networks; the variance matrix
    inside ``stats`` already reflects the edge-weight laws.  Pass
    ``lambda_max_abar`` to reuse an eigenvalue computed elsewhere.
    """
    if lambda_max_abar is None:
        lambda_max_abar = lambda_max_dense(stats.abar)
    return spectral_penalty_report(
        n=stats.abar.shape[0],
        lambda_max_abar=lambda_max_abar,
        delta_u=stats.delta_uncertainty,
        params=params,
        network_kind=stats.kind,
    )


def expected_degree_uncertainty(degrees: np.ndarray) -> tuple[float, int, float]:
    """Variance proxy for an expected-degree ensemble.

    With abar_ij = rho d_i d_j (zero diagonal), row i of the entrywise
    variance matrix abar * (1 - abar) sums to

        rho d_i (D1 - d_i) - rho^2 d_i^2 (D2 - d_i^2),

    with D1 = sum(d) and D2 = sum(d^2), so the maximum over rows costs O(n)
    and never materializes the matrix.  Returns (Delta_d, index of the
    maximizing vertex, that vertex's degree).
    """
    d = np.asarray(degrees, dtype=float)
    d1 = float(d.sum())
    d2 = float((d * d).sum())
    rho = 1.0 / d1
    rows = rho * d * (d1 - d) - (rho * d) ** 2 * (d2 - d * d)
    idx = int(np.argmax(rows))
    return float(rows[idx]), idx, float(d[idx])


def expected_degree_lambda_max(degrees: np.ndarray) -> float:
    """Top eigenvalue of abar = rho (d d^T - diag(d^2)), in O(n).

    abar is a rank-one update of the diagonal -diag(w), w_i = rho d_i^2, so
    lambda_max(abar) is the root, right of every pole, of the secular
    equation (Golub, SIAM Rev. 1973; Bunch, Nielsen & Sorensen, Numer.
    Math. 1978)

        g(lambda) = sum_i w_i / (lambda + w_i) = 1.

    1/g is concave and increasing there, so Newton on 1/g - 1 started left
    of the root climbs to it without overshooting.  The start is the
    Rayleigh quotient of d, d_tilde - sum(w^2) / d_tilde, which lies between
    Weyl's bound d_tilde - max(w) and the root; d_tilde = sum(w) bounds the
    root from above.  A step that leaves the bracket of evaluated points is
    replaced by bisection, and the iteration stops when a step no longer
    changes lambda.  With r_i = w_i / (lambda + w_i) a step needs only
    sum(r) and sum(r^2).  Fewer than two nonzero degrees leave abar zero.
    """
    d = np.asarray(degrees, dtype=float)
    w = d * d
    w /= float(d.sum())
    if np.count_nonzero(w) < 2:
        return 0.0
    lo, hi = 0.0, float(w.sum())
    lam = hi - float(w @ w) / hi
    r = np.empty_like(w)
    while True:
        np.add(w, lam, out=r)
        np.divide(w, r, out=r)
        s1 = float(r.sum())
        s2 = float(r @ r)
        if s1 >= 1.0:
            lo = lam
        else:
            hi = lam
        step = lam * (1.0 - s1 * (1.0 - s1) / (s1 - s2))
        if step == lam:
            return lam
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                return lam
        lam = step


def pair_probability_violations(degrees: np.ndarray) -> tuple[float, int]:
    """Largest pairwise edge probability rho d_i d_j (i != j) and the number
    of unordered pairs where it exceeds 1.

    A pair can exceed 1 only if both ends are hubs, d_i > sum(d) / max(d),
    so only the hubs are sorted and searched.
    """
    d = np.asarray(degrees, dtype=float)
    d1 = float(d.sum())
    rho = 1.0 / d1
    top = int(np.argmax(d))
    d_max = float(d[top])
    second = max(d[:top].max(initial=-np.inf), d[top + 1:].max(initial=-np.inf))
    max_pair = float(rho * second * d_max)
    if max_pair <= 1.0:
        return max_pair, 0
    # rho d_i d_j > 1 <=> d_j > d1 / d_i; count ordered hub pairs, drop
    # self-pairings, halve.
    hubs = np.sort(d[d > d1 / d_max])
    cutoffs = d1 / hubs
    ordered = int((hubs.size - np.searchsorted(hubs, cutoffs, side="right")).sum())
    self_pairs = int((hubs > cutoffs).sum())
    return max_pair, (ordered - self_pairs) // 2


def check_expected_degrees(
    degrees: np.ndarray,
    params: EpidemicParams,
    *,
    strict: bool = True,
) -> StabilityReport:
    """Sufficient extinction test for expected-degree (Chung-Lu) ensembles.

    Edge {i, j} is present independently with probability rho d_i d_j,
    rho = 1 / sum(d).  The expected adjacency matrix is the rank-one
    rho d d^T minus its diagonal, whose top eigenvalue is below
    d_tilde = rho sum(d^2), so d_tilde serves as lambda_max(abar).

    The construction is only a probability model when rho d_i d_j <= 1 for
    every pair.  With ``strict=True`` a violation raises; with
    ``strict=False`` the test proceeds formally and records the violation in
    ``max_pair_prob`` / ``invalid_pairs`` plus a warning note: heavy-tailed
    degree targets often break the cap at the largest hubs while the
    resulting bound is still the quantity of interest.
    """
    d = np.asarray(degrees, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need a 1-d array of at least two expected degrees")
    if not np.all(np.isfinite(d)) or d.min() < 0:
        raise ValueError("expected degrees must be finite and nonnegative")
    d1 = float(d.sum())
    if d1 <= 0:
        raise ValueError("expected degrees must not all be zero")
    n = d.size
    rho = 1.0 / d1
    max_pair, invalid = pair_probability_violations(d)
    notes: tuple[str, ...] = ()
    if max_pair > 1.0:
        msg = (
            f"invalid edge probabilities: max rho*d_i*d_j = {max_pair:.6g} > 1 "
            f"({invalid} pairs); the ensemble is not a probability model"
        )
        if strict:
            raise ValueError(msg + "; pass strict=False to evaluate anyway")
        notes = notes + (msg,)
    d_tilde = rho * float((d * d).sum())
    delta_u, _, _ = expected_degree_uncertainty(d)
    if delta_u < 0:
        raise ValueError(
            f"variance proxy is negative ({delta_u:.6g}); edge probabilities "
            "above 1 broke the variance model"
        )
    return spectral_penalty_report(
        n=n,
        lambda_max_abar=d_tilde,
        delta_u=delta_u,
        params=params,
        network_kind="expected-degree",
        test="expected-degree",
        d_tilde=d_tilde,
        max_pair_prob=max_pair,
        invalid_pairs=invalid,
        notes=notes,
    )


@dataclass(frozen=True)
class MeanLambdaResult:
    """E[lambda_max(A_G)] < delta/beta certifies almost-sure extinction."""

    e_lambda_max: float
    threshold: float
    stable: bool


def check_mean_lambda_max(
    joint: JointChain, params: EpidemicParams
) -> MeanLambdaResult:
    """Extinction test from the exact expectation of lambda_max.

    Needs the enumerated joint chain, so it scales no better than the exact
    test; its role is to sandwich the concentration bound in the oracle:
    lambda_max(abar) <= E[lambda_max(A_G)] <= lambda_max(abar) + min f.
    It certifies almost-sure extinction only: it neither implies nor is
    implied by mean stability (eta < delta).
    """
    expected = expected_lambda_max(joint)
    return MeanLambdaResult(
        e_lambda_max=expected,
        threshold=params.threshold,
        stable=expected < params.threshold,
    )
