"""Structured random-graph ensembles with closed-form stationary moments.

Three families whose expected adjacency matrix never has to be materialized:

* two-community networks: dense blocks with within-community edge
  probabilities theta1, theta2 and cross probability phi;
* expected-degree (Chung-Lu) networks: edge probability rho d_i d_j for a
  prescribed degree sequence d;
* power-law degree sequences feeding the expected-degree model, calibrated
  so the largest degree and the average degree hit prescribed targets.

Each family exposes the two scalars the stability tests need --
lambda_max(abar) and the variance row-sum Delta -- plus a realization hook
that turns a (small) expected adjacency matrix into a concrete switched
network with edge rates p = kappa abar_ij, q = kappa (1 - abar_ij).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .netmodel import EdgeChain, SwitchedNetworkSpec
from .stability import (
    expected_degree_lambda_max,
    expected_degree_uncertainty,
    pair_probability_violations,
)


@dataclass(frozen=True)
class CommunitySpec:
    """Two communities of sizes n1, n2 with block edge probabilities."""

    n1: int
    n2: int
    theta1: float
    theta2: float
    phi: float
    switch_scale: float = 1.0

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
        if not (self.switch_scale > 0):
            raise ValueError(f"switch_scale must be positive, got {self.switch_scale}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True, eq=False)
class CommunityStats:
    """Closed-form stationary summary of a two-community ensemble.

    The partition into communities is equitable for abar, so the top
    eigenvalue of the 2x2 quotient matrix equals lambda_max(abar) exactly;
    the remaining eigenvalues are -theta1 and -theta2, which never compete.
    """

    spec: CommunitySpec
    quotient: np.ndarray
    lambda_max: float
    delta_uncertainty: float


def community_quotient(spec: CommunitySpec) -> np.ndarray:
    """2x2 quotient of abar over the community partition (zero diagonal)."""
    return np.array(
        [
            [spec.theta1 * (spec.n1 - 1), spec.phi * spec.n2],
            [spec.phi * spec.n1, spec.theta2 * (spec.n2 - 1)],
        ]
    )


def community_stats(spec: CommunitySpec) -> CommunityStats:
    """lambda_max(abar) and Delta for a two-community ensemble, in O(1)."""
    q = community_quotient(spec)
    half_tr = 0.5 * (q[0, 0] + q[1, 1])
    half_gap = 0.5 * (q[0, 0] - q[1, 1])
    lam = half_tr + math.sqrt(half_gap * half_gap + q[0, 1] * q[1, 0])
    row1 = (spec.n1 - 1) * spec.theta1 * (1 - spec.theta1) + spec.n2 * spec.phi * (
        1 - spec.phi
    )
    row2 = (spec.n2 - 1) * spec.theta2 * (1 - spec.theta2) + spec.n1 * spec.phi * (
        1 - spec.phi
    )
    return CommunityStats(
        spec=spec,
        quotient=q,
        lambda_max=float(lam),
        delta_uncertainty=float(max(row1, row2)),
    )


def community_abar_dense(spec: CommunitySpec, n_cap: int = 2000) -> np.ndarray:
    """Materialized expected adjacency matrix; only for small instances."""
    if spec.n > n_cap:
        raise ValueError(f"refusing to materialize n={spec.n} > {n_cap}")
    n1, n = spec.n1, spec.n
    abar = np.full((n, n), spec.phi)
    abar[:n1, :n1] = spec.theta1
    abar[n1:, n1:] = spec.theta2
    np.fill_diagonal(abar, 0.0)
    return abar


@dataclass(frozen=True, eq=False)
class ExpectedDegreeSpec:
    """Chung-Lu ensemble: edge {i, j} present with probability rho d_i d_j."""

    degrees: np.ndarray
    switch_scale: float = 1.0

    def __post_init__(self) -> None:
        d = np.asarray(self.degrees, dtype=float)
        if d.ndim != 1 or d.size < 2:
            raise ValueError("need a 1-d array of at least two expected degrees")
        if not np.all(np.isfinite(d)) or d.min() < 0:
            raise ValueError("expected degrees must be finite and nonnegative")
        if d.sum() <= 0:
            raise ValueError("expected degrees must not all be zero")
        if not (self.switch_scale > 0):
            raise ValueError(f"switch_scale must be positive, got {self.switch_scale}")
        object.__setattr__(self, "degrees", d)

    @property
    def n(self) -> int:
        return self.degrees.size

    @property
    def rho(self) -> float:
        return 1.0 / float(self.degrees.sum())


@dataclass(frozen=True, eq=False)
class ExpectedDegreeStats:
    """Stationary summary of a Chung-Lu ensemble.

    ``d_tilde`` = sum(d^2)/sum(d) plays the role of lambda_max(abar): abar is
    the rank-one rho d d^T minus its diagonal, so lambda_max(abar) lies in
    [d_tilde - rho max(d)^2, d_tilde].  ``lambda_max`` is that eigenvalue
    itself, the root of the secular equation.
    ``max_pair_prob`` > 1 flags parameter choices that break the probability
    model; the counts are recorded rather than silently clipped.
    """

    n: int
    rho: float
    d_tilde: float
    delta_uncertainty: float
    lambda_max: float
    max_pair_prob: float
    invalid_pairs: int


def expected_degree_stats(
    spec: Union[ExpectedDegreeSpec, np.ndarray]
) -> ExpectedDegreeStats:
    """O(n) summary of a Chung-Lu ensemble, lambda_max(abar) included."""
    if isinstance(spec, ExpectedDegreeSpec):
        d = spec.degrees
    else:
        d = ExpectedDegreeSpec(degrees=np.asarray(spec, dtype=float)).degrees
    d1 = float(d.sum())
    rho = 1.0 / d1
    d_tilde = rho * float((d * d).sum())
    delta_u, _, _ = expected_degree_uncertainty(d)
    max_pair, invalid = pair_probability_violations(d)
    return ExpectedDegreeStats(
        n=d.size,
        rho=rho,
        d_tilde=d_tilde,
        delta_uncertainty=float(delta_u),
        lambda_max=expected_degree_lambda_max(d),
        max_pair_prob=max_pair,
        invalid_pairs=invalid,
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
        if not (self.exponent > 2):
            raise ValueError(
                f"exponent must exceed 2 for a finite mean, got {self.exponent}"
            )
        if not (0 < self.avg_degree <= self.max_degree):
            raise ValueError(
                "need 0 < avg_degree <= max_degree, got "
                f"avg={self.avg_degree}, max={self.max_degree}"
            )

    @property
    def coefficient(self) -> float:
        b = self.exponent
        return (b - 2.0) / (b - 1.0) * self.avg_degree * self.n ** (1.0 / (b - 1.0))

    @property
    def offset(self) -> float:
        b = self.exponent
        ratio = self.avg_degree * (b - 2.0) / (self.max_degree * (b - 1.0))
        return self.n * ratio ** (b - 1.0)


def power_law_degrees(spec: PowerLawSpec) -> np.ndarray:
    """Materialized degree sequence (descending), O(n) memory."""
    c, i0 = spec.coefficient, spec.offset
    gamma = 1.0 / (spec.exponent - 1.0)
    idx = np.arange(1, spec.n + 1, dtype=float)
    return c * (idx + i0 - 1.0) ** (-gamma)


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
    if a.min() < 0.0 or a.max(initial=0.0) > 1.0:
        raise ValueError("abar entries must lie in [0, 1]")
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
    """Parse an ensemble description ({"ensemble": "community" | ...})."""
    kind = data.get("ensemble")
    try:
        if kind == "community":
            return CommunitySpec(
                n1=int(data["n1"]),
                n2=int(data["n2"]),
                theta1=float(data["theta1"]),
                theta2=float(data["theta2"]),
                phi=float(data["phi"]),
                switch_scale=float(data.get("switch_scale", 1.0)),
            )
        if kind == "expected-degree":
            return ExpectedDegreeSpec(
                degrees=np.asarray(data["degrees"], dtype=float),
                switch_scale=float(data.get("switch_scale", 1.0)),
            )
        if kind == "power-law":
            return PowerLawSpec(
                n=int(data["n"]),
                exponent=float(data["exponent"]),
                max_degree=float(data["max_degree"]),
                avg_degree=float(data["avg_degree"]),
            )
    except KeyError as exc:
        raise ValueError(f"ensemble '{kind}': missing field {exc}") from None
    raise ValueError(
        f"unknown ensemble kind {kind!r}; expected 'community', "
        "'expected-degree' or 'power-law'"
    )
