"""Structured random-graph ensembles with closed-form stationary moments.

Three families whose expected adjacency matrix never has to be materialized:

* two-community networks: dense blocks with within-community edge
  probabilities theta1, theta2 and cross probability phi;
* expected-degree (Chung-Lu) networks: edge probability rho d_i d_j for a
  prescribed degree sequence d;
* power-law degree sequences feeding the expected-degree model, calibrated
  so the largest degree and the average degree hit prescribed targets, read
  in blocks from their closed form so that no n-array is built, and summed
  past the hubs by Euler-Maclaurin, so that most blocks are never read.

Each family exposes the two scalars the stability tests need --
lambda_max(abar) and the variance row-sum Delta -- plus a realization that
turns a small ensemble into a concrete switched network with edge rates
p = abar_ij, q = 1 - abar_ij.

:func:`load_network` is the one reader of network files: it returns an
explicit :class:`~epinet.netmodel.SwitchedNetworkSpec` or an ensemble.
:func:`summarize` turns either into the
:class:`~epinet.stability.AbarSummary` the sufficient test reads, and
:func:`as_switched_network` into an edge list.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import stability
from .netmodel import (
    EdgeChain,
    SpecFormatError,
    StationaryStats,
    SwitchedNetworkSpec,
    as_integer,
    as_real,
    read_fields,
    spec_from_dict,
    stationary_stats,
    touched_ends,
)
from .spectral import abscissa_bracket
from .stability import (
    AbarSummary,
    DegreeSequence,
    expected_degree_uncertainty,
    pair_probability_violations,
    read_table,
)

# An ensemble is realized edge by edge (an n x n abar and up to n^2 / 2 edge
# chains) only up to this many vertices; larger ones get the closed forms.
REALIZE_N_CAP = 200
# A power-law ensemble is read in blocks, so its statistics need O(block)
# memory at any n, and its first pass sums all but the first block in closed
# form; this caps the O(n) work that is left, the hub-pair count's read of
# every hub where most vertices are hubs.
POWER_LAW_N_CAP = 1_000_000_000
# A power law's blocks that start at or past this index are summed in closed
# form: there x = i + i0 - 1 >= 2^16, where the Euler-Maclaurin remainder is
# below 1e-25 of the sum.
EULER_MACLAURIN_START = 1 << 16


@dataclass(frozen=True)
class CommunitySpec:
    """Two communities of sizes n1, n2 with block edge probabilities."""

    n1: int
    n2: int
    theta1: float
    theta2: float
    phi: float

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both communities need at least one vertex")
        for name, value in (
            ("theta1", self.theta1),
            ("theta2", self.theta2),
            ("phi", self.phi),
        ):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def community_quotient(spec: CommunitySpec) -> np.ndarray:
    """2x2 quotient of abar over the community partition (zero diagonal)."""
    return np.array(
        [
            [spec.theta1 * (spec.n1 - 1), spec.phi * spec.n2],
            [spec.phi * spec.n1, spec.theta2 * (spec.n2 - 1)],
        ]
    )


def community_stats(spec: CommunitySpec) -> AbarSummary:
    """lambda_max(abar) and Delta for a two-community ensemble, in O(1).

    The partition into communities is equitable for abar, so the top
    eigenvalue of the 2x2 quotient matrix equals lambda_max(abar) exactly;
    the remaining eigenvalues are -theta1 and -theta2, which never compete.
    """
    (q11, q12), (q21, q22) = community_quotient(spec).tolist()
    half_tr = 0.5 * (q11 + q22)
    half_gap = 0.5 * (q11 - q22)
    lam = half_tr + math.sqrt(half_gap * half_gap + q12 * q21)
    row1 = (spec.n1 - 1) * spec.theta1 * (1 - spec.theta1) + spec.n2 * spec.phi * (
        1 - spec.phi
    )
    row2 = (spec.n2 - 1) * spec.theta2 * (1 - spec.theta2) + spec.n1 * spec.phi * (
        1 - spec.phi
    )
    return AbarSummary(
        n=spec.n,
        lambda_max_abar=float(lam),
        delta_uncertainty=float(max(row1, row2)),
        network_kind="binary",
        notes=("two-community closed form (exact quotient eigenvalue)",),
    )


def community_abar_dense(spec: CommunitySpec) -> np.ndarray:
    """Materialized n x n expected adjacency matrix; the caller bounds n."""
    n1, n = spec.n1, spec.n
    abar = np.full((n, n), spec.phi)
    abar[:n1, :n1] = spec.theta1
    abar[n1:, n1:] = spec.theta2
    np.fill_diagonal(abar, 0.0)
    return abar


@dataclass(frozen=True, eq=False)
class ExpectedDegreeSpec:
    """Chung-Lu ensemble: edge {i, j} present with probability rho d_i d_j.

    ``degrees`` is a read-only copy in the caller's vertex order, which a
    realization keeps; :meth:`degree_block` reads them sorted descending.
    """

    degrees: np.ndarray
    _descending: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = np.array(self.degrees, dtype=float)  # never the caller's array
        if d.ndim != 1 or d.size < 2:
            raise ValueError("need a 1-d array of at least two expected degrees")
        if not np.all(np.isfinite(d)) or d.min() < 0:
            raise ValueError("expected degrees must be finite and nonnegative")
        check_degree_scale(float(d.max()), d.size)
        descending = np.sort(d)[::-1].copy()
        d.flags.writeable = descending.flags.writeable = False
        object.__setattr__(self, "degrees", d)
        object.__setattr__(self, "_descending", descending)

    @property
    def n(self) -> int:
        return self.degrees.size

    def degree_block(self, lo: int, hi: int) -> np.ndarray:
        """d[lo:hi] (0-based) of the degrees sorted descending, read-only."""
        return self._descending[lo:hi]


def check_degree_scale(top: float, n: int) -> None:
    """The one scale rule of both expected-degree models, on n degrees whose
    largest is d_1 = ``top``: n d_1^2, a bound on sum(d^2), must not
    overflow, and d_1^2 must be at least n tiny, tiny the smallest normal
    double.  A square below tiny is subnormal and rounds with an absolute
    error of at most 2^-1075 = (eps/2) tiny, so the n squares of sum(d^2)
    lose at most n (eps/2) tiny <= (eps/2) d_1^2 <= (eps/2) sum(d^2) to
    underflow, no more than one rounding of the sum.  The rule also gives
    d_1 >= sqrt(n tiny) > tiny, so rho = 1 / sum(d) is finite."""
    tiny = np.finfo(float).tiny
    if not math.isfinite(top * top * n):
        raise ValueError(
            f"expected degrees are too large: n * max(d)^2 overflows "
            f"(max {top:.6g})"
        )
    if not top * top >= n * tiny:
        raise ValueError(
            f"expected degrees are too small: the square of the largest, "
            f"{top:.6g}, is below n * {tiny:.6g}, so sum(d^2) loses digits to "
            "underflow and sum(d) may vanish"
        )


def degree_sequence(model: Union[ExpectedDegreeSpec, PowerLawSpec]) -> DegreeSequence:
    """The descending degree stream of an expected-degree model and its first
    pass's table: an explicit array's read block by block, a power law's head
    computed once and kept as long as the stream, the rest in closed form."""
    if isinstance(model, ExpectedDegreeSpec):
        return DegreeSequence.of(model.n, model.degree_block,
                                 read_table(model.degree_block, model.n))
    size = stability.DEGREE_BLOCK
    head = model.degree_block(0, min(model.n, -(-EULER_MACLAURIN_START // size) * size))
    head.flags.writeable = False
    return DegreeSequence.of(model.n, lambda lo, hi: head[lo:hi] if hi <= head.size
                             else model.degree_block(lo, hi), model.block_table(head))


def expected_degree_stats(seq: DegreeSequence) -> AbarSummary:
    """O(n)-time, O(block)-memory summary of a Chung-Lu ensemble from its
    degree stream: d_tilde, Delta and the pairs whose edge probability
    exceeds 1.

    Edge {i, j} is present independently with probability rho d_i d_j,
    rho = 1 / sum(d).  abar is the rank-one rho d d^T minus its diagonal, so
    lambda_max(abar) lies in [d_tilde - rho max(d)^2, d_tilde] with
    d_tilde = rho sum(d^2), and d_tilde serves as lambda_max(abar); the
    eigenvalue itself is :func:`epinet.stability.expected_degree_lambda_max`,
    which the certificate does not need.

    The construction is a probability model only when rho d_i d_j <= 1 for
    every pair.  Heavy-tailed degree targets often break that cap at the
    largest hubs while the bound is still the quantity of interest, so the
    summary proceeds formally and records a violation as a note; only a
    negative Delta, where the variance model itself breaks, is refused.
    """
    d_tilde = (1.0 / seq.d1) * seq.d2  # rho D2
    delta_u = expected_degree_uncertainty(seq)
    if delta_u < 0:
        raise ValueError(
            f"variance proxy is negative ({delta_u:.6g}); edge probabilities "
            "above 1 broke the variance model"
        )
    max_pair, invalid = pair_probability_violations(seq)
    notes: tuple[str, ...] = ()
    if max_pair > 1.0:
        notes = (
            f"invalid edge probabilities: rho*d_i*d_j exceed 1 for {invalid} "
            f"pairs (max {max_pair:.6g}); the ensemble is not a probability "
            "model, so the bound is evaluated formally",
        )
    return AbarSummary(
        n=seq.n,
        lambda_max_abar=d_tilde,
        delta_uncertainty=delta_u,
        network_kind="expected-degree",
        notes=notes,
        max_pair_prob=max_pair,
        invalid_pairs=invalid,
        degrees=seq,
    )


@dataclass(frozen=True)
class PowerLawSpec:
    """Power-law degree sequence d_i = c (i + i0 - 1)^(-1/(exponent-1)).

    The coefficient c and offset i0 are calibrated so that d_1 equals
    ``max_degree`` exactly and the average degree approaches ``avg_degree``
    for large n (the finite-n average sits below the target because the
    offset suppresses the first vertices).
    """

    n: int
    exponent: float
    max_degree: float
    avg_degree: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2 vertices, got {self.n}")
        if self.n > POWER_LAW_N_CAP:
            raise ValueError(
                f"n={self.n} exceeds the power-law cap {POWER_LAW_N_CAP}; the "
                "hub-pair count reads every hub, O(n) work where most vertices "
                "are hubs"
            )
        if not (self.exponent > 2):
            raise ValueError(
                f"exponent must exceed 2 for a finite mean, got {self.exponent}"
            )
        if not (0 < self.avg_degree <= self.max_degree):
            raise ValueError(
                "need 0 < avg_degree <= max_degree, got "
                f"avg={self.avg_degree}, max={self.max_degree}"
            )
        # d_1 = c (1 + i0 - 1)^(-gamma) is infinite once i0 vanishes next to 1
        if not (1.0 + self.offset) - 1.0 > 0:
            raise ValueError(
                f"max_degree / avg_degree = {self.max_degree / self.avg_degree:.6g} "
                f"is too large for exponent {self.exponent}: the offset "
                f"i0 = {self.offset:.3g} vanishes next to 1"
            )
        # from the closed form, before any block
        check_degree_scale(float(self.degree_block(0, 1)[0]), self.n)

    @property
    def coefficient(self) -> float:
        b = self.exponent
        return (b - 2.0) / (b - 1.0) * self.avg_degree * self.n ** (1.0 / (b - 1.0))

    @property
    def offset(self) -> float:
        b = self.exponent
        ratio = self.avg_degree * (b - 2.0) / (self.max_degree * (b - 1.0))
        return self.n * ratio ** (b - 1.0)

    def degree_block(self, lo: int, hi: int) -> np.ndarray:
        """d[lo:hi] (0-based) of the descending sequence."""
        return self._degrees(np.arange(lo + 1, hi + 1, dtype=float))

    def _degrees(self, x: np.ndarray) -> np.ndarray:
        """d_i = c ((i + i0) - 1)^(-gamma) at the float indices i = ``x``,
        in place."""
        x += self.offset
        x -= 1.0
        np.power(x, -1.0 / (self.exponent - 1.0), out=x)
        x *= self.coefficient
        return x

    def block_table(self, head: np.ndarray) -> np.ndarray:
        """The first pass's table of :class:`~epinet.stability.DegreeSequence`.

        The blocks before index EULER_MACLAURIN_START hold the hubs, where i0
        may be far below 1, and are ``head``.  Every later block sums f(x) = x^-s,
        s = gamma, 2 gamma, 4 gamma, over x = a, ..., b, a = lo + i0, by
        Euler-Maclaurin (Apostol, Amer. Math. Monthly 1999): int_a^b f +
        (f(a) + f(b)) / 2 + (f'(b) - f'(a)) / 12 - (f^(3)(b) - f^(3)(a)) / 720,
        the integral as a^(1-s) expm1((1-s) L) / (1-s), L = log1p((b - a) / a),
        or L where 1 - s = 0.  f is completely monotone, so the remainder is
        below the next term, under 1e-25 of the sum.  With the roundings
        (|(1-s) L| <= 3 log 2; a rounded 1 - s costs at most ln(a) u < 21 u),
        a partial is within 64 u of its block's exact sum.  c^k enters as
        d_1^k (c / d_1)^k, which overflows only where the stream does, and the
        ends come from :meth:`degree_block`'s own operations, bit for bit.
        """
        n, gamma, size = self.n, 1.0 / (self.exponent - 1.0), stability.DEGREE_BLOCK
        starts = np.arange(head.size, n, size)
        stops = np.minimum(starts + size, n)
        tail = np.empty((len(starts), 5))
        tail[:, 3:] = self._degrees(np.stack([starts + 1, stops], axis=1).astype(float))
        a = starts + self.offset
        span = stops - starts - 1  # b - a
        log_ratio = np.log1p(span / a)
        b = a + span
        ratio = self.coefficient / head[0]
        for column, k in enumerate((1, 2, 4)):
            s, t = k * gamma, 1.0 - k * gamma
            fa, fb = a ** -s, b ** -s
            part = (a ** t * (np.expm1(t * log_ratio) / t if t else log_ratio)
                    + 0.5 * (fa + fb) + s / 12.0 * (fa / a - fb / b)
                    - s * (s + 1.0) * (s + 2.0) / 720.0 * (fa / a ** 3 - fb / b ** 3))
            part *= ratio ** k
            tail[:, column] = part if k == 4 else part * head[0] ** k  # (d / d_1)^4 stays
        return np.concatenate([read_table(lambda lo, hi: head[lo:hi], head.size), tail])


EnsembleSpec = Union[CommunitySpec, ExpectedDegreeSpec, PowerLawSpec]


def ensemble_from_dict(data: dict) -> EnsembleSpec:
    """Parse an ensemble description ({"ensemble": "community" | ...}); a
    field the kind does not list is refused, and so is a missing one."""
    kind = data.get("ensemble")
    where = f"ensemble {kind!r}"
    try:
        if kind == "community":
            _, n1, n2, theta1, theta2, phi = read_fields(
                data, ("ensemble", "n1", "n2", "theta1", "theta2", "phi"), where
            )
            return CommunitySpec(
                as_integer(n1, f"{where}: field 'n1'"),
                as_integer(n2, f"{where}: field 'n2'"),
                as_real(theta1, f"{where}: field 'theta1'"),
                as_real(theta2, f"{where}: field 'theta2'"),
                as_real(phi, f"{where}: field 'phi'"),
            )
        if kind == "expected-degree":
            _, degrees = read_fields(data, ("ensemble", "degrees"), where)
            degrees = [as_real(d, f"{where}: 'degrees' entry") for d in degrees]
            return ExpectedDegreeSpec(degrees=np.array(degrees))
        if kind == "power-law":
            _, n, exponent, max_degree, avg_degree = read_fields(
                data, ("ensemble", "n", "exponent", "max_degree", "avg_degree"), where
            )
            return PowerLawSpec(
                as_integer(n, f"{where}: field 'n'"),
                as_real(exponent, f"{where}: field 'exponent'"),
                as_real(max_degree, f"{where}: field 'max_degree'"),
                as_real(avg_degree, f"{where}: field 'avg_degree'"),
            )
    except (TypeError, OverflowError) as exc:
        raise SpecFormatError(f"{where}: {exc}") from None
    raise SpecFormatError(
        f"unknown ensemble kind {kind!r}; expected 'community', "
        "'expected-degree' or 'power-law'"
    )


def load_network(path: Union[str, Path]) -> Union[SwitchedNetworkSpec, EnsembleSpec]:
    """Read a network file: an explicit spec ({"n", "edges"}) or, when the
    top-level object has an "ensemble" key, a structured ensemble.
    Unreadable files, invalid JSON and a non-object top level raise
    SpecFormatError."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected a JSON object at top level")
    if "ensemble" in data:
        return ensemble_from_dict(data)
    return spec_from_dict(data)


def realized_pairs(model: EnsembleSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j (0-based rows and columns) with abar_ij > 0 of an
    ensemble of at most REALIZE_N_CAP vertices, and their abar_ij.  The
    size is checked before any degree sequence or abar is built; pair
    probabilities above 1 (an expected-degree model with large hubs) are
    refused."""
    if model.n > REALIZE_N_CAP:
        raise ValueError(
            f"ensemble has n={model.n} > {REALIZE_N_CAP}; too large to "
            "materialize as an edge list"
        )
    if isinstance(model, CommunitySpec):
        abar = community_abar_dense(model)
    else:
        if isinstance(model, PowerLawSpec):
            model = ExpectedDegreeSpec(degrees=model.degree_block(0, model.n))
        d = model.degrees
        abar = np.outer(d, d) / float(d.sum())
    rows, cols = np.triu_indices(model.n, 1)
    probs = abar[rows, cols]
    top = float(probs.max(initial=0.0))
    if top > 1.0:
        raise ValueError(
            f"edge probabilities abar_ij must lie in [0, 1], but they exceed 1 (max "
            f"{top:.6g}); this ensemble cannot be realized as a switched network"
        )
    keep = probs > 0.0
    return rows[keep], cols[keep], probs[keep]


def as_switched_network(
    model: Union[SwitchedNetworkSpec, EnsembleSpec]
) -> SwitchedNetworkSpec:
    """An explicit spec as it is; an ensemble realized edge by edge from
    :func:`realized_pairs`: each pair with abar_ij > 0 gets a binary chain
    with rates p = abar_ij and q = 1 - abar_ij, whose stationary edge
    probability is abar_ij again."""
    if isinstance(model, SwitchedNetworkSpec):
        return model
    rows, cols, probs = realized_pairs(model)
    edges = [EdgeChain(i=i + 1, j=j + 1, p_rate=a, q_rate=1.0 - a)
             for i, j, a in zip(rows.tolist(), cols.tolist(), probs.tolist())]
    return SwitchedNetworkSpec(n=model.n, edges=tuple(edges))


class _EdgeListOperator:
    """abar / max_ij abar_ij on the vertices that carry an edge, for
    :func:`~epinet.spectral.abscissa_bracket`: two bincounts a product, and
    ``column_sum_max``, its largest row sum, from one with the ones vector."""

    offdiagonal_min, entry_max, symmetric = 0.0, 1.0, True

    def __init__(self, stats: StationaryStats) -> None:
        local = touched_ends(stats.ends)
        self.rows, self.cols = local.T
        self.weights = stats.means / stats.means.max()
        self.shape = (int(local.max()) + 1,) * 2
        self.column_sum_max = float((self @ np.ones(self.shape[0])).max())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return (np.bincount(self.rows, self.weights * x[self.cols], minlength=len(x))
                + np.bincount(self.cols, self.weights * x[self.rows], minlength=len(x)))


def summarize(model: Union[SwitchedNetworkSpec, EnsembleSpec],
              stats: Optional[StationaryStats] = None) -> AbarSummary:
    """The sufficient test's certificate for any model, priced once: an
    explicit spec from its edge-list moments (``stats``, when the caller
    already holds them), priced at the upper end of the bracket that
    :func:`~epinet.spectral.abscissa_bracket` puts on abar / max mean, times
    that mean (0, with no solve, when every mean is 0): the largest row sum,
    with a note, when the solve narrowed nothing; an ensemble from its
    closed form."""
    if isinstance(model, SwitchedNetworkSpec):
        if stats is None:
            stats = stationary_stats(model)
        top, lam, notes = float(stats.means.max(initial=0.0)), 0.0, ()
        if top > 0.0:
            *_, hi, note = abscissa_bracket(_EdgeListOperator(stats))
            lam = top * hi
            notes = (f"lambda_max(abar) is its row-sum bound {lam:.6g}: {note}",) if note else ()
        return AbarSummary(
            n=model.n,
            lambda_max_abar=lam,
            delta_uncertainty=stats.delta_uncertainty,
            network_kind=model.kind,
            notes=notes,
        )
    if isinstance(model, CommunitySpec):
        return community_stats(model)
    return expected_degree_stats(degree_sequence(model))
