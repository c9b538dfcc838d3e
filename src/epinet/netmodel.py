"""Switched networks driven by independent Markovian edges.

Every potential edge of an undirected graph carries its own finite-state
continuous-time Markov chain, independent of all the others.  Binary edges
flip between absent (0) and present (1) with an appearance rate and a
disappearance rate; weighted edges move over a finite set of weights in
[0, 1] under an arbitrary conservative generator.  Because the chains are
independent, the stationary law of the whole graph factorizes over edges,
and the first two stationary moments of the adjacency matrix are cheap to
compute even when the joint configuration space is astronomically large.

Those moments -- the expected adjacency matrix ``abar``, held as its edge
list, and the largest variance row sum -- are the inputs to every stability
test in this package; they take O(m) memory at any vertex count n.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Union

import numpy as np


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


def as_real(value, what: str) -> float:
    """A real number from a parsed description, as a float; booleans,
    strings and other non-numbers raise SpecFormatError instead of being
    converted."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise SpecFormatError(f"{what} must be a number, got {value!r}")


def as_seed(value) -> int:
    """A seed numpy's SeedSequence takes: a non-negative integer, else ValueError."""
    if isinstance(value, numbers.Integral) and value >= 0:
        return int(value)
    raise ValueError(f"expected a non-negative integer, got {value!r}")


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


def _set_arrays(obj, **arrays: np.ndarray) -> None:
    """Store ``arrays`` on the frozen dataclass ``obj``, each read-only."""
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(obj, name, array)


@dataclass(frozen=True)
class _Edge:
    """The two 1-based vertices of a potential edge, stored with i < j (the
    constructor swaps them if needed; self-loops are refused), and the
    edge's chain as read-only arrays built once by the subclass: the weight
    ``values[k]`` of state k, the generator ``rate_matrix`` and the
    stationary law ``stationary``."""

    i: int
    j: int
    values: np.ndarray = field(init=False, repr=False, compare=False)
    rate_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    stationary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"self-loop edge ({self.i}, {self.j}) is not allowed")
        if self.i < 1 or self.j < 1:
            raise ValueError(f"vertex indices must be >= 1, got ({self.i}, {self.j})")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


# The state weights every binary edge shares: absent, present.
_BINARY_VALUES = np.array([0.0, 1.0])


@dataclass(frozen=True)
class EdgeChain(_Edge):
    """On/off Markov chain attached to one potential edge {i, j}.

    ``p_rate`` is the appearance rate (0 -> 1), ``q_rate`` the disappearance
    rate (1 -> 0).  ``p_rate + q_rate`` must be positive so the chain has a
    unique stationary law, (q, p) / (p + q) over the values (0, 1).
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
        p, q = self.p_rate, self.q_rate
        # q / (p + q): 1 - p / (p + q) loses q's digits when p >> q
        _set_arrays(self, values=_BINARY_VALUES,
                    rate_matrix=np.array([[-p, p], [q, -q]], dtype=float),
                    stationary=np.array([q, p]) / (p + q))


@dataclass(frozen=True)
class WeightedEdgeChain(_Edge):
    """Finite-state weight process attached to one potential edge {i, j}.

    ``states`` lists the possible edge weights, each in [0, 1]; ``generator``
    is the matching conservative rate matrix (rows sum to zero, off-diagonal
    entries nonnegative).  Its unique stationary law is solved for once, at
    construction time.
    """

    states: tuple[float, ...]
    generator: tuple[tuple[float, ...], ...]

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
        _set_arrays(self, values=np.array(states), rate_matrix=q, stationary=pi)


AnyEdge = Union[EdgeChain, WeightedEdgeChain]


@dataclass(frozen=True)
class SwitchedNetworkSpec:
    """A network of ``n`` vertices plus one independent chain per edge.

    Edges are stored sorted by (i, j) so that any construction that
    enumerates them (joint chains, simulators) is deterministic.  Binary and
    weighted edges cannot be mixed in one spec.  Every edge-list route reads
    the read-only edge table built here: row e of ``ends`` holds edge e's
    0-based endpoints, and of ``local`` the same renumbered 0 .. k-1 over the
    k vertices some edge touches, in vertex order.
    """

    n: int
    edges: tuple[AnyEdge, ...]
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    local: np.ndarray = field(init=False, repr=False, compare=False)

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
        ends = np.array([(e.i, e.j) for e in edges], dtype=np.int64).reshape(-1, 2) - 1
        _set_arrays(self, ends=ends,
                    local=np.unique(ends, return_inverse=True)[1].reshape(ends.shape))

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


def vertex_sums(local: np.ndarray, weights) -> np.ndarray:
    """Each vertex's sum of ``weights``, one per row of ``local`` (a spec's
    touched-vertex numbering), in edge order: one entry per vertex that
    carries an edge, O(m) memory at any n."""
    return np.bincount(local.ravel(), weights=np.repeat(np.asarray(weights, float), 2))


def max_vertex_weight(local: np.ndarray, edges) -> float:
    """max_v sum_{e on v} max_a w_e(a), the largest row sum any
    configuration can reach; ``local`` is the spec's touched numbering."""
    return float(vertex_sums(local, [e.values.max() for e in edges]).max(initial=0.0))


def edge_moments(edge: AnyEdge) -> tuple[float, float]:
    """Stationary mean and variance of one edge weight."""
    mean = float(edge.stationary @ edge.values)
    second = float(edge.stationary @ (edge.values**2))
    var = max(second - mean * mean, 0.0)
    return mean, var


@dataclass(frozen=True)
class StationaryStats:
    """First two stationary moments of the switched adjacency matrix.

    The expected adjacency matrix abar is held as its edge list: row k of
    ``ends`` holds edge k's 0-based endpoints (i < j) and ``means[k]`` the
    stationary mean of its weight.  ``delta_uncertainty`` is the largest
    row sum of the entrywise variances, the scalar that drives the
    concentration penalty in the stability tests.
    """

    ends: np.ndarray
    means: np.ndarray
    delta_uncertainty: float


def stationary_stats(spec: SwitchedNetworkSpec) -> StationaryStats:
    """Stationary moments of a switched network in O(m) memory, at any n.

    The variances are kept only as row sums over the vertices that carry an
    edge (:func:`vertex_sums`).  For large structured ensembles use the
    closed forms in :mod:`epinet.ensembles` instead.
    """
    means, variances = np.array([edge_moments(e) for e in spec.edges]).reshape(-1, 2).T
    delta = float(vertex_sums(spec.local, variances).max(initial=0.0))
    return StationaryStats(spec.ends, means, delta)


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
                    i=i, j=j, states=tuple(as_real(w, "'states' entry") for w in a),
                    generator=tuple(tuple(as_real(x, "'generator' entry") for x in row)
                                    for row in b),
                ))
            else:
                edges.append(EdgeChain(i=i, j=j, p_rate=as_real(a, "'p'"),
                                       q_rate=as_real(b, "'q'")))
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecFormatError(f"{where}: {exc}") from None
    try:
        return SwitchedNetworkSpec(n=n, edges=tuple(edges))
    except (ValueError, OverflowError) as exc:  # a vertex past int64
        raise SpecFormatError(str(exc)) from None
