"""Switched networks driven by independent Markovian edges.

Every potential edge of an undirected graph carries its own finite-state
continuous-time Markov chain, independent of all the others.  Binary edges
flip between absent (0) and present (1) with an appearance rate and a
disappearance rate; weighted edges move over a finite set of weights in
[0, 1] under an arbitrary conservative generator.  Because the chains are
independent, the stationary law of the whole graph factorizes over edges,
and the first two stationary moments of the adjacency matrix are cheap to
compute even when the joint configuration space is astronomically large.

Those moments -- the expected adjacency matrix ``abar``, the entrywise
variances, and the largest variance row sum -- are the inputs to every
stability test in this package.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Union

import numpy as np

# Explicit specs past this many vertices are refused before any n x n array
# (stationary moments, the dense eigensolve, a simulated trial's adjacency)
# is built; use the structured ensembles, which never materialize one.
DENSE_N_CAP = 10_000


class SpecFormatError(ValueError):
    """Raised when a network description (dict or JSON file) is malformed."""


def as_integer(value, what: str) -> int:
    """An integer-valued number from a parsed description; booleans,
    fractions and non-numbers raise SpecFormatError instead of truncating."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        return int(value)
    raise SpecFormatError(f"{what} must be an integer, got {value!r}")


def read_fields(data, fields: tuple[str, ...], where: str) -> list:
    """The values of ``fields``, in that order, of one object of a parsed
    description.  A non-object, the first field not in ``fields`` and the
    first one missing raise SpecFormatError naming ``where``."""
    if not isinstance(data, dict):
        raise SpecFormatError(
            f"{where}: expected an object, got {type(data).__name__}"
        )
    for key in data:
        if key not in fields:
            raise SpecFormatError(
                f"{where}: unknown field {key!r}; expected {', '.join(fields)}"
            )
    for key in fields:
        if key not in data:
            raise SpecFormatError(f"{where}: missing field {key!r}")
    return [data[key] for key in fields]


@dataclass(frozen=True)
class _Endpoints:
    """The two 1-based vertices of a potential edge, stored with i < j (the
    constructor swaps them if needed); self-loops are refused."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"self-loop edge ({self.i}, {self.j}) is not allowed")
        if self.i < 1 or self.j < 1:
            raise ValueError(f"vertex indices must be >= 1, got ({self.i}, {self.j})")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class EdgeChain(_Endpoints):
    """On/off Markov chain attached to one potential edge {i, j}.

    ``p_rate`` is the appearance rate (0 -> 1), ``q_rate`` the disappearance
    rate (1 -> 0).  ``p_rate + q_rate`` must be positive so the chain has a
    unique stationary law.
    """

    p_rate: float
    q_rate: float

    def __post_init__(self) -> None:
        super().__post_init__()
        # p + q is the chain's exit rate scale; a finite p and q whose sum
        # overflows would turn p / (p + q) into 0.
        if not math.isfinite(self.p_rate + self.q_rate):
            raise ValueError(
                f"edge ({self.i}, {self.j}): rates must be finite, and so must "
                f"their sum, got p={self.p_rate}, q={self.q_rate}"
            )
        if self.p_rate < 0 or self.q_rate < 0:
            raise ValueError(f"edge ({self.i}, {self.j}): rates must be nonnegative")
        if self.p_rate + self.q_rate <= 0:
            raise ValueError(
                f"edge ({self.i}, {self.j}): p_rate + q_rate must be positive"
            )


@dataclass(frozen=True)
class WeightedEdgeChain(_Endpoints):
    """Finite-state weight process attached to one potential edge {i, j}.

    ``states`` lists the possible edge weights, each in [0, 1]; ``generator``
    is the matching conservative rate matrix (rows sum to zero, off-diagonal
    entries nonnegative).  Its unique stationary law is solved for once, at
    construction time, and kept read-only as ``stationary``.
    """

    states: tuple[float, ...]
    generator: tuple[tuple[float, ...], ...]
    stationary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        states = tuple(float(w) for w in self.states)
        object.__setattr__(self, "states", states)
        if len(states) < 1:
            raise ValueError(f"edge ({self.i}, {self.j}): needs at least one state")
        for w in states:
            if not (0.0 <= w <= 1.0) or not np.isfinite(w):
                raise ValueError(
                    f"edge ({self.i}, {self.j}): weight {w} outside [0, 1]"
                )
        gen = tuple(tuple(float(x) for x in row) for row in self.generator)
        object.__setattr__(self, "generator", gen)
        k = len(states)
        if len(gen) != k or any(len(row) != k for row in gen):
            raise ValueError(
                f"edge ({self.i}, {self.j}): generator must be {k}x{k} "
                f"to match the {k} states"
            )
        q = np.asarray(gen, dtype=float)
        if not np.isfinite(q).all():
            raise ValueError(
                f"edge ({self.i}, {self.j}): generator entries must be finite"
            )
        offdiag = q - np.diag(np.diag(q))
        if offdiag.min(initial=0.0) < 0:
            raise ValueError(
                f"edge ({self.i}, {self.j}): off-diagonal generator entries "
                "must be nonnegative"
            )
        scale = max(1.0, float(np.abs(q).max(initial=0.0)))
        if np.abs(q.sum(axis=1)).max(initial=0.0) > 1e-9 * scale:
            raise ValueError(
                f"edge ({self.i}, {self.j}): generator rows must sum to zero"
            )
        # Fails loudly here rather than deep inside an analysis run.
        pi = _stationary_from_generator(q, label=f"edge ({self.i}, {self.j})")
        pi.flags.writeable = False
        object.__setattr__(self, "stationary", pi)


AnyEdge = Union[EdgeChain, WeightedEdgeChain]


@dataclass(frozen=True)
class SwitchedNetworkSpec:
    """A network of ``n`` vertices plus one independent chain per edge.

    Edges are stored sorted by (i, j) so that any construction that
    enumerates them (joint chains, simulators) is deterministic.  Binary and
    weighted edges cannot be mixed in one spec.
    """

    n: int
    edges: tuple[AnyEdge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        edges = tuple(sorted(self.edges, key=lambda e: (e.i, e.j)))
        object.__setattr__(self, "edges", edges)
        kinds = {type(e) for e in edges}
        if len(kinds) > 1:
            raise ValueError("cannot mix binary and weighted edges in one spec")
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e.j > self.n:
                raise ValueError(
                    f"edge ({e.i}, {e.j}) references a vertex beyond n={self.n}"
                )
            if (e.i, e.j) in seen:
                raise ValueError(f"duplicate edge ({e.i}, {e.j})")
            seen.add((e.i, e.j))

    @property
    def kind(self) -> str:
        """"binary" or "weighted" (an edgeless spec counts as binary)."""
        if self.edges and isinstance(self.edges[0], WeightedEdgeChain):
            return "weighted"
        return "binary"


@dataclass(frozen=True)
class EpidemicParams:
    """Infection rate ``beta`` and recovery rate ``delta``, both positive."""

    beta: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (self.delta > 0 and np.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")

    @property
    def threshold(self) -> float:
        """Effective recovery-to-infection ratio delta / beta."""
        return self.delta / self.beta


@dataclass(frozen=True)
class EdgeProcess:
    """Uniform finite-state view of one edge chain.

    ``values[k]`` is the edge weight in state k, ``rate_matrix`` the
    generator, ``stationary`` the stationary law.  Binary chains appear here
    as two-state processes with values (0, 1).
    """

    i: int
    j: int
    values: np.ndarray
    rate_matrix: np.ndarray
    stationary: np.ndarray


def _stationary_from_generator(q: np.ndarray, label: str) -> np.ndarray:
    """Unique stationary law of a conservative generator, via the null space
    of q^T.  Raises if the zero eigenvalue is not simple (several recurrent
    classes) or the null vector is not sign-definite."""
    k = q.shape[0]
    if k == 1:
        return np.ones(1)
    _, svals, vt = np.linalg.svd(q.T)
    tol = max(float(svals[0]), 1.0) * 1e-9
    null_count = int(np.sum(svals <= tol))
    if null_count != 1:
        raise ValueError(
            f"{label}: generator does not have a unique stationary law "
            f"({null_count} null directions)"
        )
    v = vt[-1]
    total = float(v.sum())
    if abs(total) < 1e-12:
        raise ValueError(f"{label}: stationary vector is numerically degenerate")
    pi = v / total
    if pi.min() < -1e-9:
        raise ValueError(f"{label}: stationary vector has negative mass")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def stationary_edge_prob(chain: EdgeChain) -> float:
    """Stationary probability p / (p + q) that a binary edge is present."""
    return chain.p_rate / (chain.p_rate + chain.q_rate)


def edge_process(edge: AnyEdge) -> EdgeProcess:
    """Normalize a binary or weighted edge chain into an EdgeProcess."""
    if isinstance(edge, EdgeChain):
        p, q = edge.p_rate, edge.q_rate
        rate = np.array([[-p, p], [q, -q]], dtype=float)
        prob = stationary_edge_prob(edge)
        return EdgeProcess(
            i=edge.i,
            j=edge.j,
            values=np.array([0.0, 1.0]),
            rate_matrix=rate,
            stationary=np.array([1.0 - prob, prob]),
        )
    if isinstance(edge, WeightedEdgeChain):
        values = np.asarray(edge.states, dtype=float)
        rates = np.asarray(edge.generator, dtype=float)
        return EdgeProcess(edge.i, edge.j, values, rates, edge.stationary)
    raise TypeError(f"not an edge chain: {edge!r}")


def max_vertex_weight(n: int, procs) -> float:
    """max_v sum_{e on v} max_a w_e(a), the largest row sum any
    configuration can reach; weights are added in edge order."""
    total = np.zeros(n)
    for p in procs:
        total[[p.i - 1, p.j - 1]] += p.values.max()
    return float(total.max(initial=0.0))


def edge_moments(edge: AnyEdge) -> tuple[float, float]:
    """Stationary mean and variance of one edge weight."""
    proc = edge_process(edge)
    mean = float(proc.stationary @ proc.values)
    second = float(proc.stationary @ (proc.values**2))
    var = max(second - mean * mean, 0.0)
    return mean, var


@dataclass(frozen=True)
class StationaryStats:
    """First two stationary moments of the switched adjacency matrix.

    ``abar`` is the expected adjacency matrix (symmetric, zero diagonal,
    entries in [0, 1]); ``delta_uncertainty`` is the largest row sum of the
    entrywise variances, the scalar that drives the concentration penalty
    in the stability tests.
    """

    abar: np.ndarray
    delta_uncertainty: float
    kind: str


def check_dense_size(n: int) -> None:
    """Refuse an explicit spec too large for n x n arrays (DENSE_N_CAP)."""
    if n > DENSE_N_CAP:
        raise ValueError(
            f"n={n} exceeds the dense cap {DENSE_N_CAP}; use a structured "
            "ensemble"
        )


def stationary_stats(spec: SwitchedNetworkSpec) -> StationaryStats:
    """Dense stationary moments of a switched network.

    Cost is O(n^2) memory; refuses n > DENSE_N_CAP before allocating.  For
    large structured ensembles use the closed forms in
    :mod:`epinet.ensembles` instead.  The variances are kept only as row
    sums, accumulated in column order.
    """
    check_dense_size(spec.n)
    abar = np.zeros((spec.n, spec.n))
    var_rows = np.zeros(spec.n)
    for edge in spec.edges:
        mean, v = edge_moments(edge)
        a, b = edge.i - 1, edge.j - 1
        abar[a, b] = abar[b, a] = mean
        var_rows[a] += v
        var_rows[b] += v
    return StationaryStats(
        abar=abar,
        delta_uncertainty=float(var_rows.max(initial=0.0)),
        kind=spec.kind,
    )


# ---------------------------------------------------------------------------
# Parsed JSON.  Top level: {"n", "edges"}.  Binary edge: {"i", "j", "p", "q"};
# weighted edge, one with "states" or "generator": {"i", "j", "states",
# "generator"}.  Any other field is refused, and so is a missing one.

def spec_from_dict(data: dict) -> SwitchedNetworkSpec:
    n, raw_edges = read_fields(data, ("n", "edges"), "top level")
    n = as_integer(n, "field 'n'")
    if not isinstance(raw_edges, list):
        raise SpecFormatError("field 'edges' must be a list")
    edges: list[AnyEdge] = []
    for idx, item in enumerate(raw_edges):
        where = f"edges[{idx}]"
        weighted = isinstance(item, dict) and ("states" in item or "generator" in item)
        fields = ("i", "j", "states", "generator") if weighted else ("i", "j", "p", "q")
        i, j, a, b = read_fields(item, fields, where)
        i, j = as_integer(i, f"{where}: 'i'"), as_integer(j, f"{where}: 'j'")
        try:
            if weighted:
                edges.append(WeightedEdgeChain(
                    i=i, j=j, states=tuple(a), generator=tuple(tuple(row) for row in b)
                ))
            else:
                edges.append(EdgeChain(i=i, j=j, p_rate=float(a), q_rate=float(b)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecFormatError(f"{where}: {exc}") from None
    try:
        return SwitchedNetworkSpec(n=n, edges=tuple(edges))
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
