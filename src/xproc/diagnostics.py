"""Comparison checks between exclusion processes on different graphs.

Three quantitative statements are made executable here, all at finite n:

* span containment: every low-eigenvalue eigenvector of the complete-graph
  process lies in the low-eigenvalue span of any other connected process on
  the same vertices, with an explicit threshold exchange rate;
* the projection-mass inequality that transfers low-frequency mass from a
  complete graph at rate 1/n to a general graph at rate 1/max-degree;
* the tail-mass inequality that makes sensitivity and stability monotone
  under edge addition at equal rates.

Asymptotic sensitivity/stability themselves are not decidable at finite n;
the sensitivity report tabulates the relevant masses of profiles its caller
solved over an n-grid and annotates monotone trends instead of claiming
limits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .fourier import THRESH_SLACK, SpectralProfile, band_mask, band_mass, threshold_mask
from .graph import Graph, is_complete, is_connected, is_edge_subgraph, max_degree, uniform_rate
from .spectral import SpectralBasis
from .statespace import StateCapExceeded

# A comparison check counts a violation where its residual is not within its
# theorem's tolerance (check_record).
CONTAINMENT_TOL = 1e-8       # containment_residual
DOMINATION_TOL = 1e-10       # spectra_domination_gap
PROJECTION_MASS_TOL = 1e-10  # rhs - lhs of projection_mass_inequality
MONOTONICITY_TOL = 1e-10     # lhs - rhs of monotonicity_inequality_check
DECOMPOSITION_TOL = 1e-10    # zero block + (0, k] + (k, inf) against the total mass


def containment_hypothesis(g_complete: Graph, k: float, kprime: float) -> bool:
    """alpha * k' * (n - k' + 1) >= k, without which containment says nothing."""
    n = g_complete.n
    return bool(threshold_mask(uniform_rate(g_complete) * kprime * (n - kprime + 1), k, ">="))


def containment_residual(
    g_complete: Graph,
    g_other: Graph,
    k: float,
    kprime: float,
    bases_complete,
    bases_other,
) -> list[float]:
    """Worst projection residual of low eigenvectors onto the other span, per level.

    At each level takes the complete-graph eigenvectors with eigenvalue in
    (0, k] and projects each onto the span of the other graph's eigenvectors
    with eigenvalue at most 2 * beta * kprime * d, where d is the other
    graph's maximum degree. bases_complete and bases_other are the two
    graphs' levels 0..n in order. Refuses unless containment_hypothesis holds.
    """
    if not is_complete(g_complete):
        raise ValueError("containment requires the first graph to be complete")
    if g_complete.n != g_other.n:
        raise ValueError("graphs must share a vertex set")
    if not (k > 0 and kprime > 0):
        raise ValueError("thresholds must be > 0")
    if not containment_hypothesis(g_complete, k, kprime):
        raise ValueError(
            f"hypothesis alpha*k'*(n-k'+1) >= k fails for k={k:g}, k'={kprime:g}; "
            "the containment statement does not apply"
        )
    bound = 2.0 * uniform_rate(g_other) * kprime * max_degree(g_other)
    return [_level_containment(basis_complete, basis_other, k, bound)
            for basis_complete, basis_other in zip(bases_complete, bases_other, strict=True)]


def _level_containment(basis_complete: SpectralBasis, basis_other: SpectralBasis,
                       k: float, bound: float) -> float:
    """containment_residual at one level: the other span is eigenvalues <= bound."""
    pick = band_mask(basis_complete.eigenvalues, k, "<=")
    if not pick.any():
        return 0.0
    target = threshold_mask(basis_other.eigenvalues, bound, "<=")
    psi = basis_complete.vectors[:, pick]
    chi = basis_other.vectors[:, target]
    size = basis_complete.size
    coeffs = (chi.T @ psi) / size
    residual = psi - chi @ coeffs
    norms = np.sqrt((residual**2).sum(axis=0) / size)
    return float(norms.max())


def projection_mass_inequality(
    g_complete: Graph,
    g_other: Graph,
    k: float,
    profile_complete: SpectralProfile,
    profile_other: SpectralProfile,
) -> tuple[float, float]:
    """(general-graph mass in (0, 4k], complete-graph mass in (0, k]).

    Valid for the complete graph at rate 1/n against any connected graph at
    rate 1/max-degree, with k <= n/4; the first component can never be
    smaller than the second. The profiles are of one function on each graph.
    """
    n = g_complete.n
    if not is_complete(g_complete):
        raise ValueError("first graph must be complete")
    if g_other.n != n:
        raise ValueError("graphs must share a vertex set")
    alpha = uniform_rate(g_complete)
    beta = uniform_rate(g_other)
    if abs(alpha - 1.0 / n) > 1e-9 / n:
        raise ValueError(f"complete graph rate must be 1/n = {1.0 / n:g}, got {alpha:g}")
    d = max_degree(g_other)
    if abs(beta - 1.0 / d) > 1e-9 / d:
        raise ValueError(f"other graph rate must be 1/max_degree = {1.0 / d:g}, got {beta:g}")
    if k > n / 4.0 * (1.0 + THRESH_SLACK):
        raise ValueError(f"threshold must satisfy k <= n/4 = {n / 4.0:g}, got {k}")
    if not k > 0:
        raise ValueError("threshold must be > 0")
    lhs = band_mass(profile_other, 4.0 * k, "<=")
    rhs = band_mass(profile_complete, k, "<=")
    return lhs, rhs


def monotonicity_inequality_check(
    g: Graph,
    g_sub: Graph,
    k: float,
    kprime: float,
    profile: SpectralProfile,
    profile_sub: SpectralProfile,
) -> tuple[float, float]:
    """(subgraph tail mass beyond k', bound from the supergraph profile).

    The bound is (sqrt(k/k' * mass in (0, k]) + sqrt(mass beyond k))^2 with
    both masses taken under the supergraph. Requires the subgraph's rated
    edges to be a subset of the supergraph's, and both connected. The
    profiles are of one function on each graph.
    """
    if not (k > 0 and kprime > 0):
        raise ValueError("thresholds must be > 0")
    if not is_edge_subgraph(g_sub, g):
        raise ValueError("second graph must be an equal-rate edge subgraph of the first")
    if not (is_connected(g) and is_connected(g_sub)):
        raise ValueError("both graphs must be connected")
    low = band_mass(profile, k, "<=")
    high = band_mass(profile, k, ">")
    lhs = band_mass(profile_sub, kprime, ">")
    rhs = (np.sqrt(k / kprime * low) + np.sqrt(high)) ** 2
    return lhs, float(rhs)


def spectra_domination_gap(g_sub: Graph, g: Graph, bases_sub, bases) -> list[float]:
    """Per level, the largest amount by which a subgraph eigenvalue exceeds the supergraph's.

    Sorted level spectra should be pointwise nondecreasing under edge
    addition; a gap is positive only on a violation. bases_sub and bases are
    the two graphs' levels 0..n in order, and may be level_bases streams:
    map keeps no basis once its eigenvalues are sorted, so each stream frees
    a level before it solves the next.
    """
    if not is_edge_subgraph(g_sub, g):
        raise ValueError("first graph must be an equal-rate edge subgraph of the second")
    small, big = (map(lambda basis: np.sort(basis.eigenvalues), levels)
                  for levels in (bases_sub, bases))
    return [float((s - b).max()) for s, b in zip(small, big, strict=True)]


def check_record(name: str, residuals: Sequence[float], tol: float | Sequence[float],
                 labels: Sequence[str] | None = None) -> dict:
    """A check's report: one violation per residual not within its tolerance.

    tol is one tolerance for every instance or a sequence of one per instance.
    A NaN residual is a violation, so a check fails closed; it ranks below
    every number for max_residual and, given one label per instance,
    worst_instance, the label of the first instance with the largest residual.
    """
    tols = np.broadcast_to(tol, len(residuals))
    numbers = [i for i, res in enumerate(residuals) if not math.isnan(res)]
    worst = max(numbers, key=lambda i: residuals[i], default=None)
    record = {
        "name": name,
        "instances": len(residuals),
        "violations": sum(not res <= t for res, t in zip(residuals, tols)),
        "max_residual": 0.0 if worst is None else float(residuals[worst]),
    }
    if labels is not None:
        record["worst_instance"] = "" if worst is None else labels[worst]
    return record


def _trend(values: list[float]) -> str:
    up = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    down = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    if up and down:
        return "flat"
    if up:
        return "nondecreasing"
    if down:
        return "nonincreasing"
    return "mixed"


def sensitivity_profile(
    make_profile: Callable[[int], SpectralProfile],
    n_grid: list[int],
    k_grid: list[float],
    family: str = "custom",
) -> dict:
    """Tabulate conditional-mean variance and frequency masses over an n-grid.

    make_profile(n) returns the spectral profile of one grid point, solved by
    the caller. A grid point whose make_profile raises StateCapExceeded
    produces an explicit truncation record instead of failing the whole
    report. The report holds family, n_grid, k_grid, records (one dict per n),
    trends (per-threshold monotonicity across n, a hint and never a limit
    claim) and checks, in that order.
    """
    records = []
    residuals = []  # of the mass decomposition identity, one per (n, k)
    for n in n_grid:
        try:
            profile = make_profile(n)
        except StateCapExceeded as exc:
            records.append({
                "n": n,
                "truncated": True,
                "reason": str(exc),
            })
            continue
        # (key, mass in (0, k], mass in [k, inf), mass in (k, inf)) per k
        masses = [(repr(float(k)), *(band_mass(profile, float(k), side)
                                     for side in ("<=", ">=", ">"))) for k in k_grid]
        records.append({
            "n": n,
            "variance": profile.variance(),
            "conditional_mean_variance": profile.conditional_mean_variance,
            "low_frequency_mass": {key: low for key, low, _, _ in masses},
            "tail_mass": {key: tail for key, _, tail, _ in masses},
        })
        # mass decomposition: (0, k] block + strict tail + zero block = total
        zero = profile.zero_mass()
        residuals += [abs(low + beyond + zero - profile.total_mass)
                      for _, low, _, beyond in masses]
    full = [r for r in records if not r.get("truncated")]
    trends = {}
    for k in k_grid:
        key = repr(float(k))
        trends[f"low_frequency_mass@{key}"] = _trend([r["low_frequency_mass"][key] for r in full])
        trends[f"tail_mass@{key}"] = _trend([r["tail_mass"][key] for r in full])
    trends["conditional_mean_variance"] = _trend([r["conditional_mean_variance"] for r in full])
    return {
        "family": family,
        "n_grid": list(n_grid),
        "k_grid": [float(k) for k in k_grid],
        "records": records,
        "trends": trends,
        "checks": [check_record("mass_decomposition_identity", residuals, DECOMPOSITION_TOL)],
    }
