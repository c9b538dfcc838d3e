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
smaller of f(0) and the convex piece's minimum, where f' changes sign.  The
same machinery covers weighted networks (variances of the weight chains) and
expected-degree ensembles, where lambda_max(abar) collapses to the ratio
d_tilde = sum(d^2) / sum(d).  Every model reaches the test as an
:class:`AbarSummary` (see :func:`epinet.ensembles.summarize`), which prices
the penalty once, at construction.  :func:`check_sufficient` is the one
test: it returns the report's ``sufficient`` block, a dict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .netmodel import EpidemicParams

# exp underflows to 0 below roughly exp(-745); clamping keeps f finite and
# monotone instead of raising on extreme (n, Delta) combinations.
EXP_FLOOR = -745.0

# f' squares 2 s + 6 Delta, which overflows past Delta ~ 2e153; Delta is
# capped well below that.  2 n^2 overflows past n ~ 9.5e153.
DELTA_CAP = 1e100
PENALTY_N_CAP = 1e150

# Expected-degree sequences are read in blocks of this many entries, so
# every expected-degree statistic needs O(block) memory at any n.
DEGREE_BLOCK = 1 << 16

SQRT27 = math.sqrt(27.0)


def _tail_exponent(s: np.ndarray, delta_u: float) -> np.ndarray:
    """-3 s^2 / (2 s + 6 Delta), read as 0 where s = Delta = 0 and clamped at
    EXP_FLOOR: the exponent of the tail bound behind the penalty."""
    denom = 2.0 * s + 6.0 * delta_u
    with np.errstate(invalid="ignore", divide="ignore"):
        expo = np.where(denom > 0, -3.0 * s * s / np.where(denom > 0, denom, 1.0), 0.0)
    return np.maximum(expo, EXP_FLOOR)


def _check_uncertainty(delta_u: float) -> None:
    if not (0 <= delta_u <= DELTA_CAP):
        raise ValueError(
            f"delta_u must be finite, >= 0 and <= {DELTA_CAP:g}, got {delta_u}"
        )


def _bisect(pred, lo: float, hi: float) -> float:
    """Halve [lo, hi], with ``pred`` false at lo and true at hi, until lo and
    hi are adjacent floats; return hi, the first float where ``pred`` holds."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def concentration_penalty(
    s: Union[float, np.ndarray], n: int, delta_u: float
) -> Union[float, np.ndarray]:
    """Evaluate f(s) = s + 2 n^2 exp(-3 s^2 / (2 s + 6 Delta)).

    Accepts a scalar or an array of s values, all required to be >= 0.
    ``delta_u`` may be zero (frozen graph), in which case the exponent is
    read as its limit -3 s / 2 and f(0) = 2 n^2.
    """
    if not 1 <= n <= PENALTY_N_CAP:
        raise ValueError(f"n must be >= 1 and <= {PENALTY_N_CAP:g}, got {n}")
    _check_uncertainty(delta_u)
    s_arr = np.asarray(s, dtype=float)
    if not (s_arr >= 0).all():
        raise ValueError("penalty is only defined for s >= 0")
    out = s_arr + 2.0 * float(n) * float(n) * np.exp(_tail_exponent(s_arr, delta_u))
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

    Convexity reduces to h(t) = 1.5 t^2 - 13.5 Delta^2 - sqrt(27 Delta^2 t)
    >= 0 with t = s + 3 Delta, which has a single sign change on t >= 3
    Delta.  For large Delta the root in s is near sqrt(Delta), far below
    3 Delta, so s is solved for directly rather than as t - 3 Delta:
    h(s + 3 Delta) / Delta is

        g(s) = 9 s + 1.5 s (s / Delta) - sqrt(27) sqrt(3 Delta + s),

    whose terms neither overflow nor underflow for Delta in [1e-300, 1e100].
    g(0) < 0, and the root stays below hi = 2 min(sqrt(Delta), 3
    Delta^(2/3)), since its asymptotes are sqrt(Delta) for large Delta and
    12^(1/3) Delta^(2/3) for small; hi is doubled if need be and [0, hi]
    bisected to adjacent floats.
    """
    _check_uncertainty(delta_u)
    if delta_u == 0.0:
        return 0.0

    def g(s: float) -> float:
        return 9.0 * s + 1.5 * s * (s / delta_u) - SQRT27 * math.sqrt(3.0 * delta_u + s)

    hi = 2.0 * min(math.sqrt(delta_u), 3.0 * delta_u ** (2.0 / 3.0))
    for _ in range(64):
        if g(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the convexity onset")
    return _bisect(lambda s: g(s) > 0.0, 0.0, hi)


@dataclass(frozen=True)
class PenaltyMinimum:
    """Minimum of the concentration penalty for one (n, Delta) pair."""

    n: int
    delta_uncertainty: float
    f_min: float
    s_star: float
    s0: float


def minimize_penalty(n: int, delta_u: float) -> PenaltyMinimum:
    """Global minimum of f over s >= 0.

    f is concave between 0 and the convexity onset s0, so its minimum is
    either at s = 0 or inside the convex tail.  There f' increases, so the
    tail minimum is where f' changes sign: bracketed by doubling until
    f' > 0 and bisected to adjacent floats.  f itself is evaluated twice,
    at 0 and at the tail minimum.
    """
    f0 = concentration_penalty(0.0, n, delta_u)
    s0 = convexity_onset(delta_u)

    def rising(s: float) -> bool:
        return _penalty_derivative(s, n, delta_u) > 0.0

    hi = s0 + max(delta_u, 1.0)
    for _ in range(300):
        if rising(hi):
            break
        hi = s0 + 2.0 * (hi - s0)
    else:
        raise RuntimeError("could not bracket the penalty minimum")
    s_star = _bisect(rising, s0, hi)
    f_star = concentration_penalty(s_star, n, delta_u)
    if f0 <= f_star:
        s_star, f_star = 0.0, f0
    return PenaltyMinimum(
        n=n, delta_uncertainty=delta_u, f_min=f_star, s_star=s_star, s0=s0
    )


@dataclass(frozen=True)
class AbarSummary:
    """The sufficient test's certificate for one network model, priced once.

    ``lambda_max_abar`` and ``delta_uncertainty`` (Delta) are the two
    scalars of the certificate, and ``n`` sets the penalty's 2 n^2.  They
    come from :func:`epinet.ensembles.summarize`, for an explicit spec from
    its edge-list moments and for an ensemble from a closed form.  Construction
    refuses a non-finite lambda_max(abar) and sets ``penalty``, the minimum
    of f for (n, Delta); ``lhs`` is lambda_max(abar) + min f.  A frozen
    graph (Delta = 0) has no randomness to price: its penalty is zero and
    lambda_max(abar) is the graph's own eigenvalue.

    An expected-degree summary also carries the largest pair probability,
    the number of pairs above 1 and the ``degrees`` stream it was read
    from; the other models leave them None, 0 and None.  ``notes`` record
    how the scalars were obtained.
    """

    n: int
    lambda_max_abar: float
    delta_uncertainty: float
    network_kind: str
    notes: tuple[str, ...] = ()
    max_pair_prob: Optional[float] = None
    invalid_pairs: int = 0
    degrees: Optional[DegreeSequence] = field(default=None, compare=False, repr=False)
    penalty: PenaltyMinimum = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.lambda_max_abar):
            raise ValueError(
                f"lambda_max(abar) must be finite, got {self.lambda_max_abar}"
            )
        if self.delta_uncertainty == 0.0:
            pm = PenaltyMinimum(
                n=self.n, delta_uncertainty=0.0, f_min=0.0, s_star=0.0, s0=0.0
            )
        else:
            pm = minimize_penalty(self.n, self.delta_uncertainty)
        object.__setattr__(self, "penalty", pm)

    @property
    def lhs(self) -> float:
        return self.lambda_max_abar + self.penalty.f_min


def check_sufficient(summary: AbarSummary, params: EpidemicParams) -> dict:
    """The sufficient extinction test lambda_max(abar) + min f < delta / beta
    (strict), for every network model alike, as the report's ``sufficient``
    block.

    ``stable`` true certifies almost-sure extinction; false means the test was
    inconclusive, not that the epidemic survives.  The one exception is a
    frozen graph (Delta = 0), where the comparison is exact and a note says
    so.  ``d_tilde`` is the ``lambda_max_abar`` of an expected-degree summary
    and None for the other models.
    """
    pm, lhs = summary.penalty, summary.lhs
    expected_degree = summary.network_kind == "expected-degree"
    stable = bool(lhs < params.threshold)
    notes = list(summary.notes)
    if summary.delta_uncertainty == 0.0:
        notes.append(
            "frozen graph: the eigenvalue comparison is exact, not merely sufficient"
        )
    return {
        "test": "expected-degree" if expected_degree else "spectral-penalty",
        "network_kind": summary.network_kind,
        "n": summary.n,
        "beta": params.beta,
        "delta": params.delta,
        "threshold": params.threshold,
        "lambda_max_abar": summary.lambda_max_abar,
        "delta_uncertainty": summary.delta_uncertainty,
        "f_min": pm.f_min,
        "s_star": pm.s_star,
        "s0": pm.s0,
        "lhs": lhs,
        "stable": stable,
        "verdict": "stable-a.s." if stable else "inconclusive",
        "d_tilde": summary.lambda_max_abar if expected_degree else None,
        "max_pair_prob": summary.max_pair_prob,
        "invalid_pairs": summary.invalid_pairs,
        "notes": notes,
    }


def _block_bounds(n: int) -> Iterator[tuple[int, int]]:
    for lo in range(0, n, DEGREE_BLOCK):
        yield lo, min(lo + DEGREE_BLOCK, n)


def _fsums(parts: Union[np.ndarray, list]) -> list[float]:
    """Correctly rounded totals of the columns of ``parts``, per-block partial
    sums with one row per block (about 15 000 rows at a billion degrees)."""
    return [math.fsum(column) for column in np.transpose(parts).tolist()]


def read_table(block: Callable[[int, int], np.ndarray], stop: int) -> np.ndarray:
    """A first pass's table read through ``block`` (the stream, or slices of a
    power law's head): one row per block of d[:stop] (``stop`` is n or a whole
    number of blocks), with the block's sum(d), sum(d^2), sum((d / d_1)^4)
    and its first and last degree."""
    top = float(block(0, 1)[0])
    scratch = np.empty((2, min(stop, DEGREE_BLOCK)))  # reused by every block
    table = np.empty((-(-stop // DEGREE_BLOCK), 5))
    for row, (lo, hi) in zip(table, _block_bounds(stop)):
        d = block(lo, hi)
        x, sq = scratch[:, : d.size]
        np.divide(d, top, out=x)
        x *= x
        row[:] = (float(d.sum()), float(np.multiply(d, d, out=sq).sum()),
                  float(x @ x), d[0], d[-1])
    return table


@dataclass(frozen=True, eq=False)
class DegreeSequence:
    """A descending expected-degree sequence d_1 >= ... >= d_n, read in
    blocks, with what one first pass learns of it: the sums D1 = sum(d),
    D2 = sum(d^2) and d4 = sum((d / d_1)^4) (in [1, n], so it cannot
    overflow); ``block_sums``, the per-block partials of these three sums,
    one row per block; and ``ends``, each block's first and last degree.

    ``block(lo, hi)`` returns d[lo:hi] (0-based), fresh or read-only, for at
    most DEGREE_BLOCK entries at a time, and a slice inside a power law's
    head, which its first pass computed; the first pass's ``table`` has one
    row per block: its three partial sums, then its first and last degree."""

    n: int
    block: Callable[[int, int], np.ndarray]
    d1: float
    d2: float
    d4: float
    block_sums: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, n: int, block: Callable[[int, int], np.ndarray],
           table: np.ndarray) -> "DegreeSequence":
        d1, d2, d4 = _fsums(table[:, :3])
        return cls(n=n, block=block, d1=d1, d2=d2, d4=d4,
                   block_sums=table[:, :3], ends=table[:, 3:])


def expected_degree_uncertainty(seq: DegreeSequence) -> float:
    """Variance proxy Delta_d for an expected-degree ensemble.

    With abar_ij = rho d_i d_j (zero diagonal), row i of the entrywise
    variance matrix abar * (1 - abar) sums to

        rho d_i (D1 - d_i) - (rho d_i)^2 (D2 - d_i^2),

    with D1 = sum(d) and D2 = sum(d^2).  On a block of degrees in [l, h] it
    is at most B = rho h (D1 - l) - (rho l)^2 (D2 - h^2); blocks are read in
    descending order of B until B falls below the largest row so far: one
    block of a power law, every block of a flat sequence.  Computed in the
    rows' operation order on nonnegative operands (D1 >= d, D2 >= fl(d^2)),
    each factor of B bounds the row's under monotone rounding, so B bounds
    every computed row of its block and Delta is the maximum, bit for bit.
    """
    d1, d2 = seq.d1, seq.d2
    rho = 1.0 / d1
    h, low = seq.ends.T
    bound = rho * h * (d1 - low) - (rho * low) ** 2 * (d2 - h * h)
    # one set of buffers for every block: fresh block-sized temporaries
    # return their pages to the system and fault them in again each block
    buffers = np.empty((3, min(seq.n, DEGREE_BLOCK)))
    top = -math.inf
    for b in np.argsort(-bound).tolist():
        if bound[b] < top:
            break
        lo = b * DEGREE_BLOCK
        d = seq.block(lo, min(lo + DEGREE_BLOCK, seq.n))
        sq, a, rows = buffers[:, : d.size]
        np.multiply(d, d, out=sq)
        np.multiply(rho, d, out=a)
        np.subtract(d1, d, out=rows)
        rows *= a  # rho d (D1 - d)
        a *= a  # (rho d)^2
        np.subtract(d2, sq, out=sq)
        sq *= a  # (rho d)^2 (D2 - d^2)
        rows -= sq
        top = max(top, float(rows.max()))
    return top


def expected_degree_lambda_max(seq: DegreeSequence) -> float:
    """Top eigenvalue of abar = rho (d d^T - diag(d^2)), in O(block) memory:
    the root, right of every pole, of the secular equation g(lambda) =
    sum_i r_i = 1, r_i = w_i / (lambda + w_i), w_i = rho d_i^2 (Golub, SIAM
    Rev. 1973; Bunch, Nielsen & Sorensen, Numer. Math. 1978).

    1/g is concave and increasing there, so Newton on 1/g - 1 started left
    of the root only climbs, by inc = lambda s1 (s1 - 1) / (s1 - s2), with
    s1 = sum(r) = g and s2 = sum(r^2).  It starts, from the first pass, at
    the larger of two lower bounds: the largest entry rho d_1 d_2 of abar and
    the Rayleigh quotient of d.  Then r_i <= 1/2 for i >= 2, so a step sums
    r_i and r_i^2 over i >= 2 only (A, B) and the top degree enters through
    q = 1 - r_1 = lambda / (lambda + w_1): s1 - 1 = A - q and s1 - s2 =
    A - B + r_1 q do not cancel when one hub dominates.

    A step reads only the head, the first h blocks less d_1.  The tail's ratios have
    t_i = w_i / lambda, and t / (1 + t) = t - t^2 + R_i with 0 <= R_i <= t^3,
    so the tail adds P1 / lambda - P2 / lambda^2 to A and P2 / lambda^2 to
    B, from the first pass's block sums P1 = sum(w) and P2 = sum(w^2) =
    w_1^2 sum((d / d_1)^4) over the tail.  That leaves out R = sum(R_i) of g,
    and at most 3 R of s1 - s2.  Each tail block's t is at most t_b, t at
    its first degree, so R <= sum over tail blocks of t_b P2_b / lambda^2,
    P2_b the block's part of P2: its partial inflated by the partial's error
    bound, plus B tiny for the (d / d_1)^4 that underflowed.  h is the first
    block count where that bound, at the start, is at most eps q / 8; it
    falls and q rises as lambda climbs, so it holds at every step.  If no
    head fits, every block is read and there is no tail.

    Stop rule.  Up to the root, w_i <= w_1 gives r_i <= 1 - q, so s1 - s2 >=
    r_1 q + q A >= (1 - q) q + q^2 = q, and -g' = (s1 - s2) / lambda >=
    q / root: the root is within (g - 1) / q of lambda, relative.  The
    computed g is g - R and s1 - s2 is no larger than g, so inc >=
    (g - R - 1) lambda, and the root is within inc / (q lambda) + eps / 8 of
    lambda.  Newton stops once inc / (q lambda) is 4 eps, or at the first
    step that does not increase lambda or that reaches d_tilde = sum(w).
    """
    d_top, d_next = seq.block(0, 2).tolist()
    d1 = seq.d1
    lam = d_top * d_next / d1
    if lam == 0.0:  # at most one nonzero degree (or products that underflow)
        return 0.0
    w_top = d_top * d_top / d1
    d_tilde = seq.d2 / d1
    # Rayleigh quotient d_tilde - sum(w^2) / d_tilde.  Each block partial of
    # D1, D2 and d4 is within (B + 6) u of its exact sum (B = DEGREE_BLOCK,
    # u = eps / 2): a block read sums at most B nonnegative terms, in any
    # order, after at most 7 roundings a term, and a closed-form partial
    # (PowerLawSpec.block_table) is within 64 u.  fsum rounds once, so each
    # total is within (B + 7) u (d4's underflowed terms are negligible next
    # to its term 1).  The rest adds 10 u d_tilde: in all, (5 B + 24) u
    # d_tilde < 3 B eps d_tilde.
    rayleigh = d_tilde - seq.d4 * w_top * (d_top * d_top / seq.d2)
    lam = max(lam, rayleigh - 3 * DEGREE_BLOCK * math.ulp(1.0) * d_tilde)
    ratio = w_top / lam
    p2_parts = (seq.block_sums[:, 2] * (1.0 + (DEGREE_BLOCK + 6) * math.ulp(0.5))
                + DEGREE_BLOCK * np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: no tail
        cubes = seq.ends[:, 0] ** 2 / d1 / lam * (ratio * ratio) * p2_parts
        bound = np.cumsum(cubes[::-1])[::-1]  # on R, for a tail from block b
    fits = np.flatnonzero(bound[1:] <= math.ulp(1.0) / 8 * lam / (lam + w_top))
    h = 1 + int(fits[0]) if fits.size else len(bound)
    d2_tail, d4_tail = _fsums(seq.block_sums[h:, 1:])
    head = min(h * DEGREE_BLOCK, seq.n)
    buffers = np.empty((2, min(seq.n, DEGREE_BLOCK)))  # reused by every block

    def ratios(d: np.ndarray) -> tuple[float, float]:
        w, r = buffers[:, : d.size]
        np.divide(np.multiply(d, d, out=w), d1, out=w)
        np.divide(w, np.add(w, lam, out=r), out=r)
        return float(r.sum()), float(r @ r)

    while True:
        a, b = _fsums([ratios(seq.block(max(lo, 1), hi)) for lo, hi in _block_bounds(head)])
        if head < seq.n:  # the tail: P1 / lambda - P2 / lambda^2 and P2 / lambda^2
            p2 = (w_top / lam) * (w_top / lam) * d4_tail
            a, b = a + d2_tail / d1 / lam - p2, b + p2
        r_top, q = w_top / (lam + w_top), lam / (lam + w_top)
        slope = a - b + r_top * q  # s1 - s2; zero only if every r underflows
        step = lam + lam * (r_top + a) * (a - q) / slope if slope else lam
        if not lam < step < d_tilde:
            return lam
        if step - lam <= 4 * math.ulp(1.0) * q * lam:
            return step
        lam = step


def _row_thresholds(d: np.ndarray, d1: float) -> np.ndarray:
    """t_i, the largest float with fl(d_i t_i) <= D1, for the block's rows of
    the square (fl(d_i^2) > D1): fl(D1 / d_i) is within half an ulp of D1 /
    d_i, so the float below it always qualifies and the one two above never."""
    d = d[: np.count_nonzero(d * d > d1)]
    t = d1 / d
    bits = t.view(np.int64)
    bits -= d * t > d1
    up = (bits + 1).view(float)
    bits += np.multiply(d, up, out=up) <= d1
    return t


def pair_probability_violations(seq: DegreeSequence) -> tuple[float, int]:
    """Largest pairwise edge probability rho d_i d_j (i != j) and the number
    of unordered pairs where it exceeds 1, in O(block) memory.

    A pair exceeds it when fl(d_i d_j) > D1, which is symmetric (products
    commute; d_j > fl(D1 / d_i) need not be) and monotone, so the pairs form a
    self-conjugate Ferrers diagram: row i has k(i) cells, the d_j > t_i
    (:func:`_row_thresholds`), and its Durfee square's side s counts the rows
    with fl(d_i^2) > D1.  Each cell lies in the first s rows or columns, so
    there are 2 sum_{i<s} k(i) - s^2 ordered pairs, s of them diagonal, and
    sum_{i<s} k(i) - s (s + 1) / 2 unordered ones.  Only the s rows are
    searched, in blocks, while a window of degrees moves back from the end of
    the blocks holding row 0's cells: every degree before it exceeds the
    thresholds below its first degree, and none after it a later one.
    """
    d1 = seq.d1
    d_max, second = seq.block(0, 2).tolist()
    max_pair = 1.0 / d1 * second * d_max
    if max_pair <= 1.0:
        return max_pair, 0
    jlo = hubs = min(seq.n, DEGREE_BLOCK * int(np.count_nonzero(d_max * seq.ends[:, 0] > d1)))
    window, ordered, side = np.empty(0), 0, 0  # the window: d[jlo:jhi] reversed, ascending
    for lo, hi in _block_bounds(hubs):
        t, start = _row_thresholds(seq.block(lo, hi), d1), 0
        while start < t.size:
            if window.size and t[start] < window[-1]:  # k(i) = jhi - #{d_j <= t_i}
                end = start + int(np.searchsorted(t[start:], window[-1]))
                ordered += jhi * (end - start) - int(
                    np.searchsorted(window, t[start:end], side="right").sum())
                start = end
            else:  # k(start) <= jlo
                jlo, jhi = max(0, jlo - DEGREE_BLOCK), jlo
                window = np.ascontiguousarray(seq.block(jlo, jhi)[::-1])
        side += t.size
        if t.size < hi - lo:
            break
    return max_pair, ordered - side * (side + 1) // 2
