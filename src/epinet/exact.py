"""Exact mean-stability analysis via the joint edge-configuration chain.

For a network whose m edges switch independently, the graph process is a
continuous-time Markov chain on N = prod_e K_e configurations (2^m for
binary edges).  The infection moments of the linearized epidemic then obey
a finite linear ODE whose system matrix is

    kron(Pi^T, I_n) + beta * blockdiag(A_1, ..., A_N),

where Pi is the joint generator and A_k the adjacency matrix of
configuration k.  The epidemic is mean stable exactly when the spectral
abscissa of that matrix stays below the recovery rate delta.  Pi is a
Kronecker sum of the per-edge generators and A_k a sum of per-edge terms, so
:class:`StabilityOperator` applies the matrix from those factors without
storing it, on the k vertices some edge touches: another adds a decoupled
kron(Pi^T, I) block, of abscissa 0 <= eta.  When every edge's transition graph
is a tree (a binary edge's, frozen or not), the operator applies D^-1 M D, D =
diag(sqrt pi) x I_k, on each block a one-way link splits off: a symmetric
matrix with M's spectrum.  The verdict is the bracket on eta that
:func:`~epinet.spectral.abscissa_bracket` reads off the operator.  As k N is
exponential in m, :func:`check_joint_size` refuses an instance past a cap on
the rows before anything is built.  It is the ground truth the scalable
bounds are checked against; the dense reference lives in :mod:`epinet.oracle`.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .netmodel import (AnyEdge, EpidemicParams, SwitchedNetworkSpec, max_vertex_weight,
                       touched_ends)
from .spectral import abscissa_bracket

# Cap on the rows k * N, the length of the vectors the solver stores: Davidson
# 10 basis vectors, their 10 images and a residual (ARPACK 20 and its
# workspace); every other array of the route is a few vectors or one block.
# A binary spec meets it at 17 edges, which touch 7 vertices: 7 * 2^17 > 2^19.
JOINT_DIM_CAP = 1 << 19
# Consecutive edges share one dense generator of at most this many joint
# states, so a product passes over the vector once per group.
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
    generators in this order.  ``ends`` numbers the edges' ends over the
    ``touched`` vertices, in vertex order.  No configuration is stored.
    """

    n: int
    edges: tuple[AnyEdge, ...]
    stationary: np.ndarray
    ends: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(e.values) for e in self.edges)

    @property
    def touched(self) -> int:
        return int(self.ends.max()) + 1

    @property
    def n_configs(self) -> int:
        return self.stationary.shape[0]


def check_joint_size(ends: np.ndarray, dims: Iterable[int]) -> None:
    """Refuse more than JOINT_DIM_CAP rows k * prod(dims), k the vertices
    that ``ends`` numbers 0 .. k - 1 (:func:`~epinet.netmodel.touched_ends`).

    The check runs in integer arithmetic, state count by state count, and
    stops at the one that crosses the cap, so ``dims`` may be lazy.
    """
    k, edge_count = int(ends.max(initial=-1)) + 1, len(ends)
    if k > JOINT_DIM_CAP:
        raise ValueError(f"the {k} vertices the edges touch alone exceed the {JOINT_DIM_CAP}"
                         "-row cap of the stability matrix; use the spectral bounds instead")
    n_configs = 1
    for states in dims:
        n_configs *= states
        if k * n_configs > JOINT_DIM_CAP:
            raise ValueError(
                f"joint chain needs more than {JOINT_DIM_CAP // k} configurations "
                f"({edge_count} edges; the count grows exponentially with the "
                "edge count), so the stability matrix would exceed "
                f"{JOINT_DIM_CAP} rows; use the spectral bounds instead"
            )


def build_joint_chain(spec: SwitchedNetworkSpec) -> JointChain:
    """Enumerate the joint chain of a small switched network.

    The touched vertices are numbered first.  The configuration count N =
    prod_e K_e grows exponentially, so the row cap is checked next
    (:func:`check_joint_size`), edge by edge: a refusal stops at the edge
    that crosses it.  The stationary law is the tensor product of the
    per-edge laws, because the edges switch independently.
    """
    if not spec.edges:
        raise ValueError("spec has no edges; the joint chain would be trivial")
    ends = touched_ends(np.array([(e.i - 1, e.j - 1) for e in spec.edges]))
    check_joint_size(ends, (len(e.values) for e in spec.edges))
    stationary = functools.reduce(np.multiply.outer, [e.stationary for e in spec.edges]).ravel()
    return JointChain(n=spec.n, edges=spec.edges, stationary=stationary, ends=ends)


def _reversible(edge: AnyEdge) -> bool:
    """Whether the edge's transition graph (states joined by a positive rate
    either way) is a tree: it is connected, as the stationary law is unique.
    A tree's two-way links balance (Kolmogorov); a one-way link, a frozen
    edge's or an absorbing state's, splits it into blocks that each do."""
    rates = edge.rate_matrix
    return np.count_nonzero(np.triu((rates > 0) | (rates.T > 0), 1)) == len(rates) - 1


def _symmetrized(rates: np.ndarray) -> np.ndarray:
    """D^-1 Q^T D, D = diag(sqrt pi), of a generator Q on a tree, from its
    rates alone: Q_aa on the diagonal and sqrt(Q_ab) sqrt(Q_ba) off it, which
    detailed balance makes equal to D^-1 Q^T D, and 0 on a one-way link, on
    each block such links split off.  No root of pi or division enters, so
    underflowing weights stay finite, and the product commutes, so the matrix
    is symmetric to the bit.  Each entry keeps the sign of its rate, so a
    negative rate meets the Metzler guard."""
    root = np.sqrt(np.abs(rates))
    sym = np.copysign(root * root.T, rates)
    np.fill_diagonal(sym, rates.diagonal())
    return sym


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _runs(dims: tuple[int, ...], cap: int) -> list[tuple[int, int]]:
    """Consecutive runs [start, stop) of ``dims``, each grown while its
    product of state counts stays at most ``cap`` (one edge at least)."""
    runs, start = [], 0
    while start < len(dims):
        stop = start + 1
        while stop < len(dims) and math.prod(dims[start:stop + 1]) <= cap:
            stop += 1
        runs.append((start, stop))
        start = stop
    return runs


class StabilityOperator:
    """kron(Pi^T, I_k) + beta blockdiag(A_k), applied from its factors.

    A vector is an array of shape (K_1, ..., K_m, k) in the row order of the
    matrix, k the vertices some edge touches.  A_k is a head of the edges'
    adjacency plus the tail's, two stacks of k x k matrices, one batched
    product each.  The edges fall into as few consecutive runs as a cap of
    ``GROUP_STATES`` joint states allows, the largest run as small as that
    count allows; each run is one product with its dense Kronecker sum.  When
    every edge's transition graph is a tree (``symmetric``), each group's G^T
    is replaced by Dg^-1 G^T Dg, Dg = diag(sqrt pi_group), built from the
    rates alone (:func:`_symmetrized`) on each block a one-way link (a frozen
    edge, an absorbing state) splits off: a symmetric matrix whose blocks are
    the diagonal blocks of M's block-triangular form, so it has M's
    eigenvalues.  The adjacency stacks stay, as D is a scalar on each
    configuration block, and :meth:`precondition` applies the symmetrized
    generator's shifted inverse from each group's eigendecomposition.  The
    scaling keeps the sign pattern, so ``offdiagonal_min`` (at most 0) and
    ``entry_max``, the Metzler guard of :mod:`epinet.spectral`, read the same
    from either form; ``column_sum_max``, beta max_v sum_{e on v} max_a
    w_e(a), is M's largest column sum; one that overflows is refused.
    ``matvecs`` counts the columns the operator has been applied to.
    """

    def __init__(self, joint: JointChain, beta: float) -> None:
        edges, dims = joint.edges, joint.dims
        self.column_sum_max = beta * max_vertex_weight(edges)
        if not math.isfinite(self.column_sum_max):
            raise ValueError(
                f"beta = {beta:.6g} times the heaviest vertex weight overflows: "
                "the stability matrix would hold infinite entries"
            )
        self.shape = (joint.touched * joint.n_configs,) * 2
        self.dtype = np.dtype(float)
        self.symmetric = all(map(_reversible, edges))
        self.matvecs = 0
        split = min(range(len(dims) + 1),
                    key=lambda s: math.prod(dims[:s]) + math.prod(dims[s:]))
        self._head, self._tail = (
            beta * _configurations(edges[cut], joint.ends[cut], joint.touched,
                                   np.arange(math.prod(dims[cut])))
            for cut in (slice(split), slice(split, None)))
        # the greedy's group count at GROUP_STATES, at the smallest cap that
        # keeps it: 9 binary edges make 3 + 3 + 3, not 4 + 4 + 1
        count = len(_runs(dims, GROUP_STATES))
        runs = next(r for cap in range(1, GROUP_STATES + 1)
                    if len(r := _runs(dims, cap)) == count)
        self._groups = []
        for start, stop in runs:
            gen = edges[start].rate_matrix
            for e in edges[start + 1:stop]:
                gen = _kron(gen, np.eye(len(e.values))) + _kron(np.eye(len(gen)), e.rate_matrix)
            gen = _symmetrized(gen) if self.symmetric else gen.T
            self._groups.append((math.prod(dims[:start]), np.ascontiguousarray(gen)))
        if self.symmetric:
            # G_s is the Kronecker sum of the groups' g = U diag(lam) U^T: its
            # eigenbasis is the product of theirs, its spectrum the outer sum
            lams, self._bases = zip(*(np.linalg.eigh(g) for _, g in self._groups))
            self._spectrum = functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), lams)
        gens = [g for _, g in self._groups]
        off = np.concatenate([beta * np.concatenate([e.values for e in edges])]
                             + [(g - np.diag(np.diag(g))).ravel() for g in gens])
        self.offdiagonal_min = min(0.0, float(off.min()))
        self.entry_max = max(float(np.abs(off).max()),
                             sum(float(np.abs(np.diag(g)).max()) for g in gens))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with ``shape[0]`` rows: a vector or a block of columns."""
        x = np.asarray(x, dtype=float)
        cols = x.size // self.shape[0]
        self.matvecs += cols
        # adjacency first, as the generator terms grow with the rates; block k
        # of a column is a row x_k, x_k A_k = (A_k x_k)^T: a GEMM per stack matrix
        xs = x.T.reshape(cols, len(self._head), len(self._tail), -1)
        y = np.matmul(xs, self._head)
        y += np.matmul(xs.swapaxes(1, 2), self._tail).swapaxes(1, 2)
        y = y.reshape(cols, -1)
        for left, g in self._groups:
            y += np.matmul(g, xs.reshape(cols, left, len(g), -1)).reshape(y.shape)
        return y.T.reshape(x.shape)

    __matmul__ = matvec

    def precondition(self, r: np.ndarray, theta: float) -> np.ndarray:
        """(theta I - G_s x I_k)^-1 r, G_s the symmetrized joint generator, for
        a ``symmetric`` operator: the residual in each group's eigenbasis,
        divided by theta less the spectrum of G_s, and back.  A theta at or
        below 0 is read as ``column_sum_max``, at least eta: every gap is then
        positive (gaps of either sign drew Davidson below the top on
        near-frozen edges), and none is eps on a zero mode of G_s (that
        stopped it on an absorbing block's).  A gap under eps max(1,
        ``entry_max``), rounding on the operator's scale, is read as that."""
        z = r
        for (left, _), vecs in zip(self._groups, self._bases):
            z = np.matmul(vecs.T, z.reshape(left, len(vecs), -1))
        floor = np.finfo(float).eps * max(1.0, self.entry_max)
        gap = np.maximum((theta if theta > 0 else self.column_sum_max) - self._spectrum, floor)
        z = z.reshape(len(gap), -1) / gap[:, None]
        for (left, _), vecs in zip(self._groups, self._bases):
            z = np.matmul(vecs, z.reshape(left, len(vecs), -1))
        return z.reshape(r.shape)


@dataclass(frozen=True)
class ExactResult:
    """Exact verdict from a bracket [lo, hi] on the abscissa eta: the
    eigensolver's value ``eta`` inside it (None when it was not taken),
    ``mean_stable`` (None when the bracket holds delta), the solver that ran
    (``"davidson"`` or ``"arpack"``), the products with the operator it
    took, and a ``note`` saying why its value was not taken, or None."""

    eta: Optional[float]
    lo: float
    hi: float
    mean_stable: Optional[bool]
    solver: str
    matvecs: int
    note: Optional[str]


def exact_mean_stable(joint: JointChain, params: EpidemicParams) -> ExactResult:
    """Exact mean-stability verdict from one bracket on eta.

    The matrix is Metzler, so eta is at most its largest column sum B
    (``column_sum_max``), and at least 0, the abscissa of kron(Pi^T, I_k),
    which it dominates entrywise: :func:`~epinet.spectral.abscissa_bracket`
    narrows [0, B] around its solver's value, or leaves it with a note, as
    when stiff rates widen the solver's tolerance past B.  Mean-stable when
    hi < delta, not when lo >= delta, undecided (None) otherwise.
    """
    operator = StabilityOperator(joint, params.beta)
    solver, eta, lo, hi, note = abscissa_bracket(operator)
    verdict = True if hi < params.delta else False if lo >= params.delta else None
    return ExactResult(eta=eta, lo=lo, hi=hi, mean_stable=verdict, solver=solver,
                       matvecs=operator.matvecs, note=note)


def expected_lambda_max(joint: JointChain) -> float:
    """Stationary expectation of lambda_max(A_G) over all configurations.

    It sits in the sandwich lambda_max(abar) <= E[lambda_max(A_G)] <=
    lambda_max(abar) + min f, and E[lambda_max(A_G)] < delta/beta
    certifies almost-sure extinction.  That verdict neither implies nor is
    implied by mean stability (eta < delta).

    Configurations are built in blocks from their digits, on the at most 2m
    vertices some edge touches: an untouched vertex adds a zero eigenvalue,
    never above lambda_max of a nonnegative matrix.  Work O(N (2m)^3).
    """
    rows = max(1, CONFIG_BLOCK // joint.touched**2)
    top = np.empty(joint.n_configs)
    for start in range(0, joint.n_configs, rows):
        index = np.arange(start, min(start + rows, joint.n_configs))
        blocks = _configurations(joint.edges, joint.ends, joint.touched, index)
        top[index] = np.linalg.eigvalsh(blocks)[:, -1]
    return float(joint.stationary @ top)


def _configurations(edges, local, size: int, index: np.ndarray) -> np.ndarray:
    """A_k, k in ``index``, on the ``size`` vertices of ``edges``' ends ``local``."""
    block = np.zeros((len(index), size, size))
    digits = np.unravel_index(index, [len(e.values) for e in edges]) if edges else ()
    for edge, digit, (i, j) in zip(edges, digits, local):
        block[:, i, j] = block[:, j, i] = edge.values[digit]
    return block
