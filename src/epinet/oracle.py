"""Brute-force cross-checks of the scalable bounds on tiny networks.

Everything here enumerates the joint configuration chain, so it only runs
for a handful of vertices; in exchange it validates the fast path end to
end: the sandwich lambda_max(abar) <= E[lambda_max(A_G)] <= lambda_max(abar)
+ min f, the probability tail bound behind the penalty, and the agreement
between the enumerated stationary law and the closed-form edge moments.

It also holds the dense reference for the exact test: the adjacency
matrices of all N configurations, the N x N joint generator, the direct
solve of its stationary law, the dense nN x nN mean-dynamics matrix and its
eigenvalues.  Like the rest of this module it needs numpy only.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ensembles import summarize
from .exact import JointChain, build_joint_chain
from .netmodel import EdgeChain, SwitchedNetworkSpec, stationary_stats
from .spectral import lambda_max_dense
from .stability import _tail_exponent, sufficient_lhs

REL_TOL = 1e-8


def dense_configs(joint: JointChain) -> np.ndarray:
    """The N x n x n adjacency matrices of all configurations, in order."""
    digits = np.unravel_index(np.arange(joint.n_configs), joint.dims)
    configs = np.zeros((joint.n_configs, joint.n, joint.n))
    for p, digit in zip(joint.processes, digits):
        configs[:, p.i - 1, p.j - 1] = configs[:, p.j - 1, p.i - 1] = p.values[digit]
    return configs


def dense_generator(joint: JointChain) -> np.ndarray:
    """Dense N x N joint generator, the Kronecker sum
    sum_e I x ... x Q_e x ... x I of the edge generators.

    Checks the chain's product-form stationary law against a direct solve
    of pi Pi = 0 to 1e-12, which guards the enumeration order and the
    solver both.
    """
    mats = [p.rate_matrix for p in joint.processes]
    gen = mats[0]
    for q in mats[1:]:
        gen = np.kron(gen, np.eye(q.shape[0])) + np.kron(np.eye(gen.shape[0]), q)
    size = gen.shape[0]
    if size == 1:
        solved = np.ones(1)
    else:
        system = gen.T.copy()
        system[-1, :] = 1.0
        rhs = np.zeros(size)
        rhs[-1] = 1.0
        solved = np.linalg.solve(system, rhs)
    if float(np.abs(joint.stationary - solved).max()) > 1e-12:
        raise RuntimeError(
            "stationary laws from the product form and the direct solve "
            "disagree; joint-chain construction is inconsistent"
        )
    if float(np.abs(joint.stationary @ gen).max()) > 1e-12:
        raise RuntimeError("stationary residual pi @ generator exceeds 1e-12")
    return gen


def dense_stability_matrix(joint: JointChain, beta: float) -> np.ndarray:
    """Dense nN x nN mean-dynamics matrix kron(Pi^T, I) + beta blockdiag(A_k)."""
    n = joint.n
    mat = np.kron(dense_generator(joint).T, np.eye(n))
    for k, config in enumerate(dense_configs(joint)):
        mat[k * n:(k + 1) * n, k * n:(k + 1) * n] += beta * config
    return mat


def dense_abscissa(joint: JointChain, beta: float) -> float:
    """Mean-stability abscissa eta by dense eigvals: the reference for
    :func:`epinet.exact.exact_mean_stable`."""
    return float(np.linalg.eigvals(dense_stability_matrix(joint, beta)).real.max())


@dataclass(frozen=True, eq=False)
class TailCheck:
    """Exact exceedance probabilities against the concentration bound."""

    s_values: np.ndarray
    exact_tail: np.ndarray
    bound: np.ndarray
    max_violation: float
    ok: bool


def check_tail_bound(
    stationary: np.ndarray,
    lam_all: np.ndarray,
    lam_bar: float,
    n: int,
    delta_u: float,
    s_values: np.ndarray,
) -> TailCheck:
    """Compare P(lambda_max(A_G) > lambda_max(abar) + s), enumerated exactly,
    with the bound 2 n exp(-3 s^2 / (2 s + 6 Delta)) at each requested s.

    ``lam_all`` holds lambda_max of every configuration, weighted by
    ``stationary``; ``lam_bar`` is lambda_max(abar).
    """
    s = np.asarray(s_values, dtype=float)
    exact = np.array(
        [float(stationary[lam_all > lam_bar + si].sum()) for si in s]
    )
    bound = 2.0 * n * np.exp(_tail_exponent(s, delta_u))
    violation = float((exact - bound).max(initial=-np.inf))
    return TailCheck(
        s_values=s,
        exact_tail=exact,
        bound=bound,
        max_violation=violation,
        ok=violation <= 1e-12,
    )


@dataclass(frozen=True)
class OracleReport:
    """One random instance: enumerated truths next to the fast bounds."""

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
    is the one ``analyze`` reports, from :func:`epinet.ensembles.summarize`
    and :func:`epinet.stability.sufficient_lhs`."""
    summary = summarize(spec)
    pm, lhs = sufficient_lhs(summary)
    lam_bar = summary.lambda_max_abar
    joint = build_joint_chain(spec)

    configs = dense_configs(joint)
    abar_enum = np.tensordot(joint.stationary, configs, axes=1)
    abar_consistent = (
        float(np.abs(abar_enum - stationary_stats(spec).abar).max()) <= 1e-10
    )

    lam_all = np.linalg.eigvalsh(configs)[:, -1]
    e_lam = float(joint.stationary @ lam_all)
    tol = REL_TOL * max(1.0, abs(lam_bar), abs(e_lam))
    sandwich_ok = (lam_bar - tol <= e_lam) and (e_lam <= lhs + tol)

    s_top = max(1.0, float(lam_all.max()) - lam_bar)
    tail = check_tail_bound(
        joint.stationary,
        lam_all,
        lambda_max_dense(abar_enum),
        spec.n,
        summary.delta_uncertainty,
        np.linspace(0.0, 1.5 * s_top, 20),
    )
    eta = dense_abscissa(joint, beta=1.0)
    return OracleReport(
        n=spec.n,
        m=len(spec.edges),
        lambda_max_abar=lam_bar,
        delta_uncertainty=summary.delta_uncertainty,
        f_min=pm.f_min,
        lhs_upper=lhs,
        e_lambda_max=e_lam,
        eta_beta1=eta,
        sandwich_ok=bool(sandwich_ok),
        tail_ok=tail.ok,
        tail_max_violation=tail.max_violation,
        abar_consistent=abar_consistent,
    )


def run_sandwich_suite(count: int = 100, seed: int = 0) -> list[OracleReport]:
    """Random-instance suite; deterministic for a fixed (count, seed)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return [check_instance(random_small_spec(rng)) for _ in range(count)]


def suite_summary(reports: list[OracleReport]) -> dict:
    failures = sum(0 if r.passed else 1 for r in reports)
    return {
        "count": len(reports),
        "passed": len(reports) - failures,
        "failures": failures,
    }
