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
dense.  The size is still exponential in m, so this is capped; it is the
ground truth the scalable bounds are checked against.  The dense reference
for all of this lives in :mod:`epinet.oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .netmodel import EpidemicParams, SwitchedNetworkSpec, edge_process
from .spectral import spectral_abscissa

CONFIG_CAP = 65_536
# Caps on the arrays of the exact route, which together keep every instance
# they admit under 1 GB peak: the rows n * N of the mean-dynamics matrix
# (ARPACK keeps 20 vectors of that length), its stored nonzeros (about 40
# bytes each while it is assembled), and the entries N * n^2 of the
# adjacency matrices in ``JointChain.configs``.
JOINT_DIM_CAP = 1 << 19
JOINT_NNZ_CAP = 1 << 24
CONFIG_ENTRY_CAP = 1 << 24


@dataclass(frozen=True)
class JointChain:
    """Joint configuration chain of all edge processes.

    ``configs[k]`` is the n x n adjacency matrix of configuration k,
    ``rate_matrices[e]`` the generator of edge e, and ``stationary`` the
    product-form stationary law of the joint chain.  ``edge_order`` records
    the (i, j) pairs in enumeration order; configuration k corresponds to
    the mixed-radix digits of k over the per-edge state counts, last edge
    fastest, so the joint generator is the Kronecker sum of
    ``rate_matrices`` in this order.
    """

    n: int
    edge_order: tuple[tuple[int, int], ...]
    configs: np.ndarray
    rate_matrices: tuple[np.ndarray, ...]
    stationary: np.ndarray

    @property
    def n_configs(self) -> int:
        return self.configs.shape[0]


def build_joint_chain(
    spec: SwitchedNetworkSpec, config_cap: int = CONFIG_CAP
) -> JointChain:
    """Enumerate the joint chain of a small switched network.

    The configuration count is the product of the per-edge state counts
    (2^m for m binary edges) and is capped because it grows exponentially;
    instances past the cap must fall back to the spectral bounds.  The
    stationary law is the tensor product of the per-edge laws, which holds
    because the edges switch independently.
    """
    if not spec.edges:
        raise ValueError("spec has no edges; the joint chain would be trivial")
    procs = [edge_process(e) for e in spec.edges]
    n_configs = 1
    for proc in procs:
        n_configs *= len(proc.values)
        if n_configs > config_cap:
            raise ValueError(
                f"joint chain needs more than {config_cap} configurations "
                f"({len(spec.edges)} edges; the count grows exponentially "
                "with the edge count); use the spectral bounds instead"
            )
    if n_configs * spec.n**2 > CONFIG_ENTRY_CAP:
        raise ValueError(
            f"joint chain would store {n_configs} adjacency matrices of "
            f"{spec.n} x {spec.n} (> {CONFIG_ENTRY_CAP} entries); use the "
            "spectral bounds instead"
        )

    stationary = procs[0].stationary
    for proc in procs[1:]:
        stationary = np.kron(stationary, proc.stationary)

    dims = [len(p.values) for p in procs]
    digits = np.unravel_index(np.arange(n_configs), dims)
    configs = np.zeros((n_configs, spec.n, spec.n))
    for proc, digit in zip(procs, digits):
        vals = proc.values[digit]
        configs[:, proc.i - 1, proc.j - 1] = vals
        configs[:, proc.j - 1, proc.i - 1] = vals

    return JointChain(
        n=spec.n,
        edge_order=tuple((p.i, p.j) for p in procs),
        configs=configs,
        rate_matrices=tuple(p.rate_matrix for p in procs),
        stationary=stationary,
    )


def assemble_stability_matrix(
    joint: JointChain, beta: float, dim_cap: int = JOINT_DIM_CAP
) -> "scipy.sparse.csr_array":
    """Sparse (CSR) nN x nN mean-dynamics matrix
    kron(Pi^T, I) + beta blockdiag(A_k)."""
    from scipy import sparse

    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n, big_n = joint.n, joint.n_configs
    dim = n * big_n
    if dim > dim_cap:
        raise ValueError(
            f"stability matrix would be {dim} x {dim} (> cap {dim_cap})"
        )
    generator = sparse.csr_array(joint.rate_matrices[0])
    for q in joint.rate_matrices[1:]:
        generator = sparse.kron(
            generator, sparse.eye_array(q.shape[0]), format="csr"
        ) + sparse.kron(sparse.eye_array(generator.shape[0]), q, format="csr")
    k, i, j = np.nonzero(joint.configs)
    nnz = generator.nnz * n + k.size
    if nnz > JOINT_NNZ_CAP:
        raise ValueError(
            f"stability matrix would hold {nnz} nonzeros (> cap {JOINT_NNZ_CAP})"
        )
    flow = sparse.kron(generator.T, sparse.eye_array(n), format="csr")
    blocks = sparse.coo_array(
        (beta * joint.configs[k, i, j], (k * n + i, k * n + j)), shape=(dim, dim)
    )
    return (flow + blocks).tocsr()


def mean_stability_abscissa(
    joint: JointChain, params: EpidemicParams, dim_cap: int = JOINT_DIM_CAP
) -> float:
    """Spectral abscissa eta of the mean-dynamics matrix; the epidemic is
    mean stable exactly when eta < delta."""
    mat = assemble_stability_matrix(joint, params.beta, dim_cap=dim_cap)
    return spectral_abscissa(mat, dim_cap=dim_cap)


@dataclass(frozen=True)
class ExactResult:
    eta: float
    delta: float
    mean_stable: bool


def exact_mean_stable(
    joint: JointChain, params: EpidemicParams, dim_cap: int = JOINT_DIM_CAP
) -> ExactResult:
    """Exact mean-stability verdict: eta < delta (strict)."""
    eta = mean_stability_abscissa(joint, params, dim_cap=dim_cap)
    return ExactResult(eta=eta, delta=params.delta, mean_stable=eta < params.delta)


@dataclass(frozen=True)
class HurwitzResult:
    abscissa: float
    stable: bool


def check_mean_stability_modes(
    modes: list[np.ndarray], generator: np.ndarray
) -> HurwitzResult:
    """Mean stability of a switched linear system with Metzler mode matrices.

    ``modes[k]`` is the system matrix active in Markov state k, ``generator``
    the switching generator.  The first moment is stable iff
    kron(generator^T, I) + blockdiag(modes) is Hurwitz.  Rejects non-Metzler
    modes, for which this criterion does not hold.
    """
    gen = np.asarray(generator, dtype=float)
    big_n = gen.shape[0]
    if gen.ndim != 2 or gen.shape[1] != big_n:
        raise ValueError("generator must be square")
    if len(modes) != big_n:
        raise ValueError(
            f"got {len(modes)} mode matrices for a {big_n}-state generator"
        )
    scale = max(1.0, float(np.abs(gen).max(initial=0.0)))
    if float((gen - np.diag(np.diag(gen))).min(initial=0.0)) < -1e-12 * scale:
        raise ValueError("generator has negative off-diagonal entries")
    if float(np.abs(gen.sum(axis=1)).max(initial=0.0)) > 1e-9 * scale:
        raise ValueError("generator rows must sum to zero")
    mats = [np.asarray(m, dtype=float) for m in modes]
    n = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"mode {k} has shape {m.shape}, expected ({n}, {n})")
        mscale = max(1.0, float(np.abs(m).max(initial=0.0)))
        if float((m - np.diag(np.diag(m))).min(initial=0.0)) < -1e-12 * mscale:
            raise ValueError(
                f"mode {k} is not Metzler; mean stability of the first moment "
                "is not equivalent to this matrix being Hurwitz"
            )
    mat = np.kron(gen.T, np.eye(n))
    for k, m in enumerate(mats):
        block = slice(k * n, (k + 1) * n)
        mat[block, block] += m
    eta = spectral_abscissa(mat)
    return HurwitzResult(abscissa=eta, stable=eta < 0)


def expected_lambda_max(joint: JointChain) -> float:
    """Stationary expectation of lambda_max(A_G) over all configurations."""
    top = np.linalg.eigvalsh(joint.configs)[:, -1]
    return float(joint.stationary @ top)


def enumerate_expectation(
    joint: JointChain, func: Callable[[np.ndarray], float]
) -> float:
    """Stationary expectation of an arbitrary scalar graph functional."""
    vals = np.array([func(joint.configs[k]) for k in range(joint.n_configs)])
    return float(joint.stationary @ vals)


def dump_stability_matrix(matrix, path: Union[str, Path]) -> None:
    """Write the sparse stability matrix in Matrix Market format."""
    from scipy import io

    io.mmwrite(str(path), matrix)
