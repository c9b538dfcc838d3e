"""Brute-force cross-checks of the scalable bounds on tiny networks.

Everything here enumerates the joint configuration chain, so it only runs
for a handful of vertices; in exchange it validates the fast path end to
end: the sandwich lambda_max(abar) <= E[lambda_max(A_G)] <= lambda_max(abar)
+ min f, the probability tail bound behind the penalty, and the agreement
between the enumerated stationary law and the closed-form edge moments,
the Lanczos lambda_max(abar) against eigvalsh of the enumerated abar.

It also holds the dense reference for the exact test: the adjacency
matrices of all N configurations, enumerated once per instance, the N x N
joint generator from digit flips, the direct solve of its stationary law,
the dense nN x nN mean-dynamics matrix and its abscissa: eigvalsh when the
joint chain is reversible, its generator symmetrized by sqrt(pi) at N x N
before it is spread over nN x nN, eigvals otherwise.  Like the rest of this
module it needs numpy only.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ensembles import summarize
from .exact import JointChain, build_joint_chain
from .netmodel import EdgeChain, SwitchedNetworkSpec, as_seed, stationary_stats
from .stability import _tail_exponent

REL_TOL = 1e-8


def dense_configs(joint: JointChain) -> np.ndarray:
    """The N x n x n adjacency matrices of all configurations, in order."""
    digits = np.unravel_index(np.arange(joint.n_configs), joint.dims)
    configs = np.zeros((joint.n_configs, joint.n, joint.n))
    for e, digit in zip(joint.edges, digits):
        configs[:, e.i - 1, e.j - 1] = configs[:, e.j - 1, e.i - 1] = e.values[digit]
    return configs


def dense_abar(stats, n: int) -> np.ndarray:
    """The n x n abar of :func:`~epinet.netmodel.stationary_stats`'s edge list."""
    abar = np.zeros((n, n))
    rows, cols = stats.ends.T
    abar[rows, cols] = abar[cols, rows] = stats.means
    return abar


def dense_generator(joint: JointChain) -> np.ndarray:
    """Dense N x N joint generator, the Kronecker sum sum_e I x ... x Q_e x
    ... x I, from digit flips: row k holds Q_e's row digit_e(k) where only
    digit e differs from k, and the sum of their diagonals at k.

    Checks the chain's product-form stationary law pi against a direct
    solve of pi Pi = 0, to 1e-12 times the spread of the rates (the largest
    |Pi| entry over the smallest positive rate), and its residual pi Pi to
    1e-12 max|Pi|, which guards the enumeration order and the solver both.
    Two laws differ by at most 1, so a tolerance of 1 or more leaves the
    solve nothing to check; it is skipped there, where it can be singular.
    """
    size = stride = joint.n_configs
    gen, rows = np.zeros((size, size)), np.arange(size)[:, None]
    for e, digit in zip(joint.edges, np.unravel_index(rows[:, 0], joint.dims)):
        stride //= len(e.values)  # digit e steps by the product of the later edges' sizes
        flips = (np.arange(len(e.values)) - digit[:, None]) * stride
        gen[rows, rows + flips] += e.rate_matrix[digit]
    scale = float(np.abs(gen).max())
    # The solve's error is about eps * cond, and cond grows with the rate
    # spread: 1.4 r on the path whose two edges switch at rates r and 1.
    tol = 1e-12 * scale / float(gen[gen > 0].min(initial=np.inf))
    if tol < 1.0:
        system = gen.T.copy()
        system[-1, :] = 1.0
        rhs = np.zeros(size)
        rhs[-1] = 1.0
        if float(np.abs(joint.stationary - np.linalg.solve(system, rhs)).max()) > tol:
            raise RuntimeError(
                "stationary laws from the product form and the direct solve "
                "disagree; joint-chain construction is inconsistent"
            )
    if float(np.abs(joint.stationary @ gen).max()) > 1e-12 * scale:
        raise RuntimeError("stationary residual pi @ generator exceeds 1e-12 max|Pi|")
    return gen


def _spread(gen_t: np.ndarray, configs: np.ndarray, beta: float) -> np.ndarray:
    """kron(gen_t, I_n) + beta blockdiag(configs), dense."""
    size, n = configs.shape[:2]
    mat = np.zeros((size, n, size, n))
    vertex, config = np.arange(n), np.arange(size)
    mat[:, vertex, :, vertex] = gen_t
    mat[config, :, config, :] += beta * configs
    return mat.reshape(size * n, size * n)


def dense_stability_matrix(joint: JointChain, beta: float) -> np.ndarray:
    """Dense nN x nN mean-dynamics matrix kron(Pi^T, I) + beta blockdiag(A_k)."""
    return _spread(dense_generator(joint).T, dense_configs(joint), beta)


def dense_abscissa(joint: JointChain, beta: float, configs=None) -> float:
    """Mean-stability abscissa eta: the reference for
    :func:`epinet.exact.exact_mean_stable`; pass ``configs`` if already built.

    A reversible joint chain (every binary or birth-death edge) with a
    positive stationary law pi makes S = D^-1 M D symmetric, D = diag(sqrt
    pi) x I, and S is similar to M, so eta is eigvalsh's top eigenvalue of
    S: the N x N generator part symmetrized, then spread.  Any other chain,
    or an S that overflows or is not symmetric to rounding, takes the top
    real part of M's dense eigvals.
    """
    configs = dense_configs(joint) if configs is None else configs
    gen_t = dense_generator(joint).T
    if joint.stationary.min() > 0:
        root = np.sqrt(joint.stationary)
        with np.errstate(over="ignore"):
            sym = gen_t * root
            sym /= root[:, None]
        scale = max(sym.max(), -sym.min(), beta * configs.max())
        # S - S^T is antisymmetric to the bit, so its max is its max modulus.
        if np.isfinite(scale) and (sym - sym.T).max() <= 1e-12 * scale:
            return float(np.linalg.eigvalsh(_spread(sym, configs, beta))[-1])
    return float(np.linalg.eigvals(_spread(gen_t, configs, beta)).real.max())


@dataclass(frozen=True, eq=False)
class TailCheck:
    """Exact exceedance probabilities against the concentration bound."""

    s_values: np.ndarray
    exact_tail: np.ndarray
    bound: np.ndarray
    max_violation: float
    ok: bool


def check_tail_bound(stationary: np.ndarray, lam_all: np.ndarray, lam_bar: float, n: int,
                     delta_u: float, s_values: np.ndarray) -> TailCheck:
    """Compare P(lambda_max(A_G) > lambda_max(abar) + s), enumerated exactly,
    with the bound 2 n exp(-3 s^2 / (2 s + 6 Delta)) at each requested s.

    ``lam_all`` holds lambda_max of every configuration, weighted by
    ``stationary``; ``lam_bar`` is lambda_max(abar).  One sort of
    ``lam_all`` gives every tail, summed from the top.
    """
    s = np.asarray(s_values, dtype=float)
    order = np.argsort(lam_all)
    above = np.append(np.cumsum(stationary[order[::-1]])[::-1], 0.0)
    exact = above[np.searchsorted(lam_all[order], lam_bar + s, side="right")]
    bound = 2.0 * n * np.exp(_tail_exponent(s, delta_u))
    violation = float((exact - bound).max(initial=-np.inf))
    return TailCheck(s_values=s, exact_tail=exact, bound=bound, max_violation=violation,
                     ok=violation <= 1e-12)


@dataclass(frozen=True)
class OracleReport:
    """One random instance: enumerated truths next to the fast bounds;
    ``abar_consistent`` also holds lambda_max(abar) to eigvalsh, to 1e-12."""

    n: int
    m: int
    lambda_max_abar: float
    delta_uncertainty: float
    f_min: float
    lhs_upper: float
    e_lambda_max: float
    eta_beta1: float
    sandwich_ok: bool
    tail_ok: bool
    tail_max_violation: float
    abar_consistent: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def passed(self) -> bool:
        return self.sandwich_ok and self.tail_ok and self.abar_consistent


def random_small_spec(rng: np.random.Generator) -> SwitchedNetworkSpec:
    """A random binary instance with 2-4 vertices and rates in [0.1, 5]."""
    n = int(rng.integers(2, 5))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if len(edges) > 0 and rng.random() < 0.15:
                continue  # drop some edges so not every instance is complete
            p, q = rng.uniform(0.1, 5.0, size=2)
            edges.append(EdgeChain(i=i, j=j, p_rate=float(p), q_rate=float(q)))
    return SwitchedNetworkSpec(n=n, edges=tuple(edges))


def check_instance(spec: SwitchedNetworkSpec) -> OracleReport:
    """Run every cross-check on one small instance; the certificate checked
    is the one ``analyze`` reports: the priced summary that
    :func:`epinet.ensembles.summarize` builds, from the same closed-form
    moments the enumerated abar is checked against."""
    stats = stationary_stats(spec)
    summary = summarize(spec, stats)
    lam_bar, lhs = summary.lambda_max_abar, summary.lhs
    joint = build_joint_chain(spec)

    configs = dense_configs(joint)
    abar_enum = np.tensordot(joint.stationary, configs, axes=1)
    lam_dense = float(np.linalg.eigvalsh(abar_enum)[-1])
    abar_consistent = (float(np.abs(abar_enum - dense_abar(stats, spec.n)).max()) <= 1e-10
                       and abs(lam_bar - lam_dense) <= 1e-12 * max(1.0, lam_dense))

    lam_all = np.linalg.eigvalsh(configs)[:, -1]
    e_lam = float(joint.stationary @ lam_all)
    tol = REL_TOL * max(1.0, abs(lam_bar), abs(e_lam))
    sandwich_ok = (lam_bar - tol <= e_lam) and (e_lam <= lhs + tol)

    s_top = max(1.0, float(lam_all.max()) - lam_bar)
    tail = check_tail_bound(joint.stationary, lam_all, lam_dense, spec.n,
                            summary.delta_uncertainty, np.linspace(0.0, 1.5 * s_top, 20))
    return OracleReport(
        n=spec.n, m=len(spec.edges), lambda_max_abar=lam_bar,
        delta_uncertainty=summary.delta_uncertainty, f_min=summary.penalty.f_min,
        lhs_upper=lhs, e_lambda_max=e_lam, eta_beta1=dense_abscissa(joint, 1.0, configs),
        sandwich_ok=bool(sandwich_ok), tail_ok=tail.ok,
        tail_max_violation=tail.max_violation, abar_consistent=abar_consistent,
    )


def run_sandwich_suite(count: int = 100, seed: int = 0) -> list[OracleReport]:
    """Random-instance suite; deterministic for a fixed (count, seed)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(as_seed(seed))
    return [check_instance(random_small_spec(rng)) for _ in range(count)]


def suite_summary(reports: list[OracleReport]) -> dict:
    failures = sum(0 if r.passed else 1 for r in reports)
    return {
        "count": len(reports),
        "passed": len(reports) - failures,
        "failures": failures,
    }
