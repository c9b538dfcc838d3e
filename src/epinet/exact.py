"""Exact mean-stability analysis via the joint edge-configuration chain.

For a network whose m edges switch independently, the graph process is a
continuous-time Markov chain on N = prod_e K_e configurations (2^m for
binary edges).  The infection moments of the linearized epidemic then obey
a finite linear ODE whose system matrix is

    kron(Pi^T, I_n) + beta * blockdiag(A_1, ..., A_N),

where Pi is the joint generator and A_k the adjacency matrix of
configuration k.  The epidemic is mean stable exactly when the spectral
abscissa of that matrix stays below the recovery rate delta.  Pi is a
Kronecker sum of the per-edge generators and A_k a sum of per-edge terms,
so :class:`StabilityOperator` applies the matrix from those factors without
storing it, and ARPACK finds its abscissa.  The size is still exponential
in m, so :func:`build_joint_chain` refuses an instance past a cap on the
rows before it builds anything.  It is the ground truth the scalable bounds
are checked against; the dense reference lives in :mod:`epinet.oracle`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .netmodel import AnyEdge, EpidemicParams, SwitchedNetworkSpec, max_vertex_weight
from .spectral import spectral_abscissa

# Cap on the rows n * N, the length of the 20 vectors ARPACK keeps; every
# other array of the route is a few vectors or one block.  A binary spec
# meets it at 17 edges, which need 7 vertices: 7 * 2^17 > 2^19.
JOINT_DIM_CAP = 1 << 19
# ARPACK may exceed the column-sum bound on eta by this much, relative to the
# larger of the bound and delta: a frozen regular graph sits on the bound, and
# with rates of 1e6 its computed eta exceeds it by up to 2.5e-7 relative.
ETA_BOUND_RTOL = 1e-6
# Consecutive edges share one dense generator while their joint state count
# stays at most this, so a product passes over the vector once per group.
GROUP_STATES = 16
# expected_lambda_max builds about this many adjacency entries at a time.
CONFIG_BLOCK = 1 << 16


@dataclass(frozen=True)
class JointChain:
    """Joint configuration chain of all edge chains.

    ``edges`` is ``spec.edges`` itself and ``stationary`` the product-form
    stationary law.  Configuration k is the mixed-radix digits of k over
    ``dims``, last edge fastest: A_k holds edge e's weight in state
    digit_e(k), and the joint generator is the Kronecker sum of the edge
    generators in this order.  No configuration is stored.
    """

    n: int
    edges: tuple[AnyEdge, ...]
    stationary: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(e.values) for e in self.edges)

    @property
    def n_configs(self) -> int:
        return self.stationary.shape[0]


def build_joint_chain(spec: SwitchedNetworkSpec) -> JointChain:
    """Enumerate the joint chain of a small switched network.

    The configuration count N = prod_e K_e grows exponentially, so the row
    cap is checked first, in integer arithmetic, edge by edge: a refusal
    stops at the edge that crosses it.  The stationary law is the tensor
    product of the per-edge laws, because the edges switch independently.
    """
    if not spec.edges:
        raise ValueError("spec has no edges; the joint chain would be trivial")
    n, n_configs = spec.n, 1
    for edge in spec.edges:
        n_configs *= len(edge.values)
        if n * n_configs > JOINT_DIM_CAP:
            raise ValueError(
                f"joint chain needs more than {JOINT_DIM_CAP // n} configurations "
                f"({len(spec.edges)} edges; the count grows exponentially with the "
                "edge count), so the stability matrix would exceed "
                f"{JOINT_DIM_CAP} rows; use the spectral bounds instead"
            )
    stationary = functools.reduce(np.kron, [e.stationary for e in spec.edges])
    return JointChain(n=n, edges=spec.edges, stationary=stationary)


class StabilityOperator:
    """kron(Pi^T, I_n) + beta blockdiag(A_k), applied from its factors.

    A vector is an array of shape (K_1, ..., K_m, n) in the row order of the
    matrix.  Edge {i, j} adds beta w(state) times the entries at j to those
    at i, and back; each run of edges of at most ``GROUP_STATES`` joint
    states is one product with its dense Kronecker sum.  ``offdiagonal_min``
    (at most 0) and ``entry_max`` come from the factors, for the Metzler
    guard of :func:`epinet.spectral.spectral_abscissa`; ``column_sum_max``,
    beta max_v sum_{e on v} max_a w_e(a), is the largest column sum; one
    that overflows is refused.
    """

    def __init__(self, joint: JointChain, beta: float) -> None:
        edges, dims, self.n = joint.edges, joint.dims, joint.n
        self.column_sum_max = beta * max_vertex_weight(self.n, edges)
        if not math.isfinite(self.column_sum_max):
            raise ValueError(
                f"beta = {beta:.6g} times the heaviest vertex weight overflows: "
                "the stability matrix would hold infinite entries"
            )
        self.shape = (joint.n * joint.n_configs,) * 2
        self.dtype = np.dtype(float)
        self._edges = [(math.prod(dims[:k]), dims[k], e.i - 1, e.j - 1,
                        [(a, beta * w) for a, w in enumerate(e.values) if w != 0.0])
                       for k, e in enumerate(edges)]
        self._groups, start = [], 0
        while start < len(edges):
            stop = start + 1
            while stop < len(edges) and math.prod(dims[start:stop + 1]) <= GROUP_STATES:
                stop += 1
            gen = edges[start].rate_matrix
            for e in edges[start + 1:stop]:
                gen = (np.kron(gen, np.eye(len(e.values)))
                       + np.kron(np.eye(len(gen)), e.rate_matrix))
            self._groups.append((math.prod(dims[:start]), np.ascontiguousarray(gen.T)))
            start = stop
        gens = [g for _, g in self._groups]
        off = np.concatenate([beta * np.concatenate([e.values for e in edges])]
                             + [(g - np.diag(np.diag(g))).ravel() for g in gens])
        self.offdiagonal_min = min(0.0, float(off.min()))
        self.entry_max = max(float(np.abs(off).max()),
                             sum(float(np.abs(np.diag(g)).max()) for g in gens))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with ``shape[0]`` rows: a vector or a block of columns."""
        x = np.asarray(x, dtype=float)
        y = np.zeros_like(x)
        # the adjacency terms first: the generator's grow with the rates
        cols = x.size // self.shape[0]
        for left, states, i, j, weights in self._edges:
            xs = x.reshape(left, states, -1, self.n, cols)
            ys = y.reshape(left, states, -1, self.n, cols)
            for a, bw in weights:
                ys[:, a, :, i] += bw * xs[:, a, :, j]
                ys[:, a, :, j] += bw * xs[:, a, :, i]
        for left, gen_t in self._groups:
            y += np.matmul(gen_t, x.reshape(left, len(gen_t), -1)).reshape(x.shape)
        return y

    __matmul__ = matvec


@dataclass(frozen=True)
class ExactResult:
    """Exact verdict: the abscissa eta and whether it is below delta."""

    eta: float
    mean_stable: bool


def exact_mean_stable(joint: JointChain, params: EpidemicParams) -> ExactResult:
    """Exact mean-stability verdict: eta < delta (strict).

    The matrix is Metzler, so eta is at most its largest column sum.
    ARPACK's error grows with the largest rate, so stiff rates can push its
    value past that bound; a value past it by more than ETA_BOUND_RTOL is
    noise and raises RuntimeError.
    """
    operator = StabilityOperator(joint, params.beta)
    eta = spectral_abscissa(operator)
    bound = operator.column_sum_max
    if eta > bound + ETA_BOUND_RTOL * max(bound, params.delta):
        raise RuntimeError(
            f"ARPACK's abscissa {eta:.6g} exceeds its bound {bound:.6g} "
            "(beta times the largest column sum of a configuration); the "
            "edge rates are too stiff for the eigensolver"
        )
    return ExactResult(eta=eta, mean_stable=eta < params.delta)


def expected_lambda_max(joint: JointChain) -> float:
    """Stationary expectation of lambda_max(A_G) over all configurations.

    It sits in the sandwich lambda_max(abar) <= E[lambda_max(A_G)] <=
    lambda_max(abar) + min f, and E[lambda_max(A_G)] < delta/beta
    certifies almost-sure extinction.  That verdict neither implies nor is
    implied by mean stability (eta < delta).

    Configurations are built in blocks from their digits, on the at most 2m
    vertices that carry an edge: an isolated vertex adds a zero eigenvalue,
    never above lambda_max of a nonnegative matrix.  Work O(N (2m)^3).
    """
    ends = np.array([(e.i, e.j) for e in joint.edges])
    touched, local = np.unique(ends, return_inverse=True)
    size, local = len(touched), local.reshape(ends.shape)
    rows = max(1, CONFIG_BLOCK // (size * size))
    top = np.empty(joint.n_configs)
    for start in range(0, joint.n_configs, rows):
        index = np.arange(start, min(start + rows, joint.n_configs))
        block = np.zeros((len(index), size, size))
        digits = np.unravel_index(index, joint.dims)
        for edge, digit, (i, j) in zip(joint.edges, digits, local):
            block[:, i, j] = block[:, j, i] = edge.values[digit]
        top[index] = np.linalg.eigvalsh(block)[:, -1]
    return float(joint.stationary @ top)
