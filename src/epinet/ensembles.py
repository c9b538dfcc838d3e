"""Structured random-graph ensembles with closed-form stationary moments.

Three families whose expected adjacency matrix never has to be materialized:

* two-community networks: dense blocks with within-community edge
  probabilities theta1, theta2 and cross probability phi;
* expected-degree (Chung-Lu) networks: edge probability rho d_i d_j for a
  prescribed degree sequence d;
* power-law degree sequences feeding the expected-degree model, calibrated
  so the largest degree and the average degree hit prescribed targets, and
  read in blocks from their closed form so that no n-array is built.

Each family exposes the two scalars the stability tests need --
lambda_max(abar) and the variance row-sum Delta -- plus a realization that
turns a small ensemble into a concrete switched network with edge rates
p = kappa abar_ij, q = kappa (1 - abar_ij).

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
from typing import Union

import numpy as np

from .netmodel import (
    EdgeChain,
    SpecFormatError,
    SwitchedNetworkSpec,
    as_integer,
    read_fields,
    spec_from_dict,
    stationary_stats,
)
from .spectral import lambda_max_dense
from .stability import (
    AbarSummary,
    DegreeSequence,
    expected_degree_uncertainty,
    pair_probability_violations,
)

# An ensemble is realized edge by edge (an n x n abar and up to n^2 / 2 edge
# chains) only up to this many vertices; larger ones get the closed forms.
REALIZE_N_CAP = 200
# A power-law ensemble is streamed in blocks, so its statistics need O(block)
# memory at any n; this caps their O(n) work (`analyze` at 1e9 vertices
# takes about 20 s of CPU on one core).
POWER_LAW_N_CAP = 1_000_000_000


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
        test="spectral-penalty",
        d_tilde=None,
        max_pair_prob=None,
        invalid_pairs=0,
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
    overflow, and d_1, a lower bound on sum(d), must be at least the
    smallest normal double, so that rho = 1 / sum(d) is finite."""
    if not math.isfinite(top * top * n):
        raise ValueError(
            f"expected degrees are too large: n * max(d)^2 overflows "
            f"(max {top:.6g})"
        )
    if not top >= np.finfo(float).tiny:
        raise ValueError(
            f"expected degrees are too small: the largest, {top:.6g}, is "
            f"below {np.finfo(float).tiny:.6g}, so sum(d) may vanish"
        )


def degree_sequence(model: Union[ExpectedDegreeSpec, PowerLawSpec]) -> DegreeSequence:
    """The descending degree stream of an expected-degree model."""
    return DegreeSequence.of(model.n, model.degree_block)


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
        test="expected-degree",
        d_tilde=d_tilde,
        max_pair_prob=max_pair,
        invalid_pairs=invalid,
        notes=notes,
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
                "statistics take O(n) work"
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
        """d[lo:hi] (0-based) of the descending sequence, from the closed
        form d_i = c ((i + i0) - 1)^(-gamma) with a float index i."""
        x = np.arange(lo + 1, hi + 1, dtype=float)
        x += self.offset
        x -= 1.0
        np.power(x, -1.0 / (self.exponent - 1.0), out=x)
        x *= self.coefficient
        return x


def realize_switched_spec(abar: np.ndarray, kappa: float) -> SwitchedNetworkSpec:
    """Turn an expected adjacency matrix into a concrete switched network.

    Every nonzero abar_ij becomes a binary edge with appearance rate
    kappa * abar_ij and disappearance rate kappa * (1 - abar_ij), so the
    stationary edge probability is abar_ij again and kappa sets the
    switching speed.  Entries equal to zero produce no edge.
    """
    if not (kappa > 0 and np.isfinite(kappa)):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    a = np.asarray(abar, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-12:
        raise ValueError("abar must be symmetric")
    if float(np.abs(np.diag(a)).max(initial=0.0)) > 0.0:
        raise ValueError("abar must have a zero diagonal")
    lo, hi = float(a.min(initial=0.0)), float(a.max(initial=0.0))
    if not (lo >= 0.0 and hi <= 1.0):
        bad = f"they exceed 1 (max {hi:.6g})" if hi > 1.0 else f"got min {lo:.6g}"
        raise ValueError(
            f"edge probabilities abar_ij must lie in [0, 1], but {bad}; this "
            "ensemble cannot be realized as a switched network"
        )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] > 0.0:
                edges.append(
                    EdgeChain(
                        i=i + 1,
                        j=j + 1,
                        p_rate=kappa * a[i, j],
                        q_rate=kappa * (1.0 - a[i, j]),
                    )
                )
    return SwitchedNetworkSpec(n=n, edges=tuple(edges))


EnsembleSpec = Union[CommunitySpec, ExpectedDegreeSpec, PowerLawSpec]


def ensemble_from_dict(data: dict) -> EnsembleSpec:
    """Parse an ensemble description ({"ensemble": "community" | ...}); a
    field the kind does not list is refused, and so is a missing one."""
    kind = data.get("ensemble")
    where = f"ensemble {kind!r}"
    try:
        if kind == "community":
            _, n1, n2, *probs = read_fields(
                data, ("ensemble", "n1", "n2", "theta1", "theta2", "phi"), where
            )
            return CommunitySpec(as_integer(n1, "field 'n1'"),
                                 as_integer(n2, "field 'n2'"), *map(float, probs))
        if kind == "expected-degree":
            _, degrees = read_fields(data, ("ensemble", "degrees"), where)
            return ExpectedDegreeSpec(degrees=np.asarray(degrees, dtype=float))
        if kind == "power-law":
            _, n, *shape = read_fields(
                data, ("ensemble", "n", "exponent", "max_degree", "avg_degree"), where
            )
            return PowerLawSpec(as_integer(n, "field 'n'"), *map(float, shape))
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


def as_switched_network(
    model: Union[SwitchedNetworkSpec, EnsembleSpec]
) -> SwitchedNetworkSpec:
    """An explicit spec as it is; an ensemble of at most REALIZE_N_CAP
    vertices realized by :func:`realize_switched_spec`.  The size is checked
    before any degree sequence or abar is built."""
    if isinstance(model, SwitchedNetworkSpec):
        return model
    if model.n > REALIZE_N_CAP:
        raise ValueError(
            f"ensemble has n={model.n} > {REALIZE_N_CAP}; too large to "
            "materialize as an edge list"
        )
    if isinstance(model, CommunitySpec):
        return realize_switched_spec(community_abar_dense(model), 1.0)
    if isinstance(model, PowerLawSpec):
        model = ExpectedDegreeSpec(degrees=model.degree_block(0, model.n))
    d = model.degrees
    abar = np.outer(d, d) / float(d.sum())
    np.fill_diagonal(abar, 0.0)
    return realize_switched_spec(abar, 1.0)


def summarize(model: Union[SwitchedNetworkSpec, EnsembleSpec]) -> AbarSummary:
    """The sufficient test's inputs for any model: an explicit spec from its
    dense stationary moments, an ensemble from its closed form."""
    if isinstance(model, SwitchedNetworkSpec):
        stats = stationary_stats(model)
        return AbarSummary(
            n=model.n,
            lambda_max_abar=lambda_max_dense(stats.abar),
            delta_uncertainty=stats.delta_uncertainty,
            network_kind=stats.kind,
            test="spectral-penalty",
            d_tilde=None,
            max_pair_prob=None,
            invalid_pairs=0,
            notes=(),
        )
    if isinstance(model, CommunitySpec):
        return community_stats(model)
    return expected_degree_stats(degree_sequence(model))
