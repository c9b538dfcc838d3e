"""Exact mean-stability analysis via the joint edge-configuration chain.

For a network whose m edges switch independently, the graph process is a
continuous-time Markov chain on N = prod_e K_e configurations (2^m for
binary edges).  The infection moments of the linearized epidemic then obey
a finite linear ODE whose system matrix is

    kron(Pi^T, I_n) + beta * blockdiag(A_1, ..., A_N),

where Pi is the joint generator and A_k the adjacency matrix of
configuration k.  The epidemic is mean stable exactly when the spectral
abscissa of that matrix stays below the recovery rate delta.  The matrix is
assembled sparse (Pi is a Kronecker sum of the per-edge generators) and its
abscissa found by ARPACK, so neither Pi nor the nN x nN matrix is ever
dense.  The size is still exponential in m, so :func:`build_joint_chain`
refuses, before it builds anything, an instance past a cap on the rows, the
nonzeros or the stored adjacency entries.  It is the ground truth the
scalable bounds are checked against.  The dense reference for all of this
lives in :mod:`epinet.oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .netmodel import EpidemicParams, SwitchedNetworkSpec, edge_process
from .spectral import spectral_abscissa

# Caps on the arrays of the exact route, all checked in build_joint_chain
# from the edge chains before any array of N = prod_e K_e entries is built:
# the rows n * N of the mean-dynamics matrix (ARPACK keeps 20 vectors of that
# length), its stored nonzeros (about 40 bytes each while it is assembled),
# and the entries N * n^2 of the adjacency matrices in ``JointChain.configs``.
# Every array the route builds is bounded by one of them.  A binary spec
# meets the row cap first: 17 edges need 7 vertices, and 7 * 2^17 > 2^19.
JOINT_DIM_CAP = 1 << 19
JOINT_NNZ_CAP = 1 << 24
CONFIG_ENTRY_CAP = 1 << 24
# ARPACK may exceed the column-sum bound on eta by this much, relative to the
# larger of the bound and delta: a frozen regular graph sits on the bound, and
# with rates of 1e6 its computed eta exceeds it by up to 2.5e-7 relative.
ETA_BOUND_RTOL = 1e-6


@dataclass(frozen=True)
class JointChain:
    """Joint configuration chain of all edge processes.

    ``configs[k]`` is the n x n adjacency matrix of configuration k,
    ``rate_matrices[e]`` the generator of edge e, and ``stationary`` the
    product-form stationary law of the joint chain.  Edges are enumerated in
    the order of ``spec.edges``; configuration k corresponds to the
    mixed-radix digits of k over the per-edge state counts, last edge
    fastest, so the joint generator is the Kronecker sum of
    ``rate_matrices`` in this order.
    """

    n: int
    configs: np.ndarray
    rate_matrices: tuple[np.ndarray, ...]
    stationary: np.ndarray

    @property
    def n_configs(self) -> int:
        return self.configs.shape[0]


def build_joint_chain(spec: SwitchedNetworkSpec) -> JointChain:
    """Enumerate the joint chain of a small switched network.

    The configuration count N is the product of the per-edge state counts
    (2^m for m binary edges) and grows exponentially, so the three caps are
    checked first, in integer arithmetic on the edge chains; instances past
    a cap must fall back to the spectral bounds.  The stationary law is the
    tensor product of the per-edge laws, which holds because the edges
    switch independently.
    """
    if not spec.edges:
        raise ValueError("spec has no edges; the joint chain would be trivial")
    n = spec.n
    procs = [edge_process(e) for e in spec.edges]
    n_configs = 1
    for proc in procs:
        n_configs *= len(proc.values)
        if n * n_configs > JOINT_DIM_CAP:
            raise ValueError(
                f"joint chain needs more than {JOINT_DIM_CAP // n} configurations "
                f"({len(procs)} edges; the count grows exponentially with the "
                "edge count), so the stability matrix would exceed "
                f"{JOINT_DIM_CAP} rows; use the spectral bounds instead"
            )
    if n_configs * n * n > CONFIG_ENTRY_CAP:
        raise ValueError(
            f"joint chain would store {n_configs} adjacency matrices of "
            f"{n} x {n} (> {CONFIG_ENTRY_CAP} entries); use the spectral "
            "bounds instead"
        )
    # Nonzeros of kron(Pi^T, I_n) + beta blockdiag(A_k): each off-diagonal
    # rate and each nonzero weight of edge e recurs in N / K_e configurations,
    # and the diagonal rate of a configuration, the sum of its edges', is
    # zero only where every one of them is.
    off = weights = 0
    zero_diagonal = 1
    for proc in procs:
        rates = proc.rate_matrix
        repeats = n_configs // rates.shape[0]
        diagonal = int(np.count_nonzero(np.diag(rates)))
        off += repeats * (int(np.count_nonzero(rates)) - diagonal)
        weights += repeats * int(np.count_nonzero(proc.values))
        zero_diagonal *= rates.shape[0] - diagonal
    nnz = n * (off + n_configs - zero_diagonal) + 2 * weights
    if nnz > JOINT_NNZ_CAP:
        raise ValueError(
            f"stability matrix would hold {nnz} nonzeros (> {JOINT_NNZ_CAP}); "
            "use the spectral bounds instead"
        )

    stationary = procs[0].stationary
    for proc in procs[1:]:
        stationary = np.kron(stationary, proc.stationary)

    dims = [len(p.values) for p in procs]
    digits = np.unravel_index(np.arange(n_configs), dims)
    configs = np.zeros((n_configs, n, n))
    for proc, digit in zip(procs, digits):
        vals = proc.values[digit]
        configs[:, proc.i - 1, proc.j - 1] = vals
        configs[:, proc.j - 1, proc.i - 1] = vals

    return JointChain(
        n=n,
        configs=configs,
        rate_matrices=tuple(p.rate_matrix for p in procs),
        stationary=stationary,
    )


def assemble_stability_matrix(
    joint: JointChain, beta: float
) -> "scipy.sparse.csr_array":
    """Sparse (CSR) nN x nN mean-dynamics matrix
    kron(Pi^T, I) + beta blockdiag(A_k), whose rows and nonzeros
    :func:`build_joint_chain` has already capped."""
    from scipy import sparse

    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n = joint.n
    dim = n * joint.n_configs
    generator = sparse.csr_array(joint.rate_matrices[0])
    for q in joint.rate_matrices[1:]:
        generator = sparse.kron(
            generator, sparse.eye_array(q.shape[0]), format="csr"
        ) + sparse.kron(sparse.eye_array(generator.shape[0]), q, format="csr")
    k, i, j = np.nonzero(joint.configs)
    flow = sparse.kron(generator.T, sparse.eye_array(n), format="csr")
    blocks = sparse.coo_array(
        (beta * joint.configs[k, i, j], (k * n + i, k * n + j)), shape=(dim, dim)
    )
    return (flow + blocks).tocsr()


@dataclass(frozen=True, eq=False)
class ExactResult:
    """Exact verdict, with the sparse mean-dynamics matrix it was read from."""

    eta: float
    mean_stable: bool
    matrix: "scipy.sparse.csr_array"


def exact_mean_stable(joint: JointChain, params: EpidemicParams) -> ExactResult:
    """Exact mean-stability verdict: eta < delta (strict).

    The columns of kron(Pi^T, I) sum to zero, so a column of the Metzler
    mean-dynamics matrix sums to beta times a column sum of some A_k, and
    eta <= beta max_k max_v sum_u A_k[u, v].  ARPACK's error grows with the
    largest rate, so stiff rates can push its value past that bound; a value
    past it by more than ETA_BOUND_RTOL is noise and raises RuntimeError.
    """
    matrix = assemble_stability_matrix(joint, params.beta)
    eta = spectral_abscissa(matrix)
    bound = params.beta * float(joint.configs.sum(axis=1).max())
    if eta > bound + ETA_BOUND_RTOL * max(bound, params.delta):
        raise RuntimeError(
            f"ARPACK's abscissa {eta:.6g} exceeds its bound {bound:.6g} "
            "(beta times the largest column sum of a configuration); the "
            "edge rates are too stiff for the eigensolver"
        )
    return ExactResult(eta=eta, mean_stable=eta < params.delta, matrix=matrix)


def expected_lambda_max(joint: JointChain) -> float:
    """Stationary expectation of lambda_max(A_G) over all configurations.

    It sits in the sandwich lambda_max(abar) <= E[lambda_max(A_G)] <=
    lambda_max(abar) + min f, and E[lambda_max(A_G)] < delta/beta
    certifies almost-sure extinction.  That verdict neither implies nor is
    implied by mean stability (eta < delta).
    """
    top = np.linalg.eigvalsh(joint.configs)[:, -1]
    return float(joint.stationary @ top)


def dump_stability_matrix(matrix, path: Union[str, Path]) -> None:
    """Write the sparse stability matrix in Matrix Market format."""
    from scipy import io

    io.mmwrite(str(path), matrix)
