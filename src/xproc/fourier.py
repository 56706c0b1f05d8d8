"""Boolean functions on the full configuration space and their spectral profiles.

A function f: {0,1}^n -> {0,1} is stored as a table of 2^n values indexed
by the configuration word. As in the paper, every function is Boolean: a
table holding any other value is refused when it is built. Its spectral
profile collects the coefficients against the full-space eigenbasis
obtained by rescaling each level basis by sqrt(2^n / C(n, l)) and extending
by zero, so the coefficient at (i, l) is sqrt(C(n, l) / 2^n) times the
level inner product with the level vector.

Everything downstream — exact time correlations, covariances, and the
flip probability — is a weighted sum over the profile entries:

    E[f(X_0) f(X_t)]     = sum exp(-t * lam) * coeff^2
    P(f(X_0) != f(X_eps)) = 2 * sum (1 - exp(-eps * lam)) * coeff^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralBasis, group_eigenvalues, zero_mask
from .statespace import vertex_masks

THRESH_SLACK = 1e-9      # relative slack for eigenvalue-vs-threshold comparisons


@dataclass(eq=False)
class BooleanFunction:
    """A function f: {0,1}^n -> {0,1}, as a float table over all 2^n configurations.

    Every value is checked to be 0 or 1 when the function is built, so the
    flip probability is defined for every function.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (1 << self.n,):
            raise ValueError(
                f"table has length {self.values.shape}, expected ({1 << self.n},)"
            )
        if not np.isin(self.values, (0.0, 1.0)).all():
            raise ValueError("Boolean mode requires all values in {0, 1}")

    def mean(self) -> float:
        return float(self.values.mean())

    def variance(self) -> float:
        return float(np.mean(self.values**2) - self.values.mean() ** 2)


def _marbles_on(n: int, mask) -> np.ndarray:
    """Per configuration word, the number of black marbles under mask."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64) & mask)


def parity_on_set(n: int, vertices) -> BooleanFunction:
    """Indicator of an odd count of black marbles on the given vertex set."""
    vertices = sorted(set(int(v) for v in vertices))
    if any(not (0 <= v < n) for v in vertices):
        raise ValueError(f"vertices out of range for n={n}: {vertices}")
    mask = np.bitwise_or.reduce(vertex_masks(n)[vertices], initial=0)
    return BooleanFunction(n, (_marbles_on(n, mask) % 2).astype(float))


def dictator(n: int, v: int) -> BooleanFunction:
    """The color at a single vertex."""
    if not (0 <= v < n):
        raise ValueError(f"vertex {v} out of range for n={n}")
    return BooleanFunction(n, _marbles_on(n, vertex_masks(n)[v]).astype(float))


def majority(n: int) -> BooleanFunction:
    """1 when black marbles are a strict majority (ties count as 0)."""
    return BooleanFunction(n, (_marbles_on(n, (1 << n) - 1) > n / 2).astype(float))


def make_function(n: int, family: str) -> BooleanFunction:
    """Build a named family: "dictator:v", "parity_on_set:v1,v2,...", "majority"."""
    head, sep, arg = family.partition(":")
    if head == "dictator":
        return dictator(n, int(arg))
    if head == "parity_on_set":
        vertices = [int(s) if s else None for s in arg.split(",")]
        if None in vertices or len(set(vertices)) < len(vertices):
            raise ValueError(f"parity_on_set takes a list of distinct vertices, as "
                             f"parity_on_set:0,2, got {family!r}")
        return parity_on_set(n, vertices)
    if head == "majority":
        if sep:
            raise ValueError(f"majority takes no argument, got {family!r}")
        return majority(n)
    raise ValueError(
        f"unknown function family {head!r}; expected dictator, parity_on_set, or majority"
    )


@dataclass(eq=False)
class SpectralProfile:
    """Coefficients of a function against a full-space eigenbasis.

    Entries are parallel arrays (level, eigenvalue, coefficient) in level
    order, each level in its basis order; zero marks the zero eigenvalue
    block, over which the squared coefficients aggregate to the variance of
    the level-conditional mean plus the squared mean.
    """

    n: int
    levels: np.ndarray
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    mean: float
    total_mass: float = field(init=False)
    conditional_mean_variance: float = field(init=False)
    zero: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sq = self.coefficients**2
        self.total_mass = float(sq.sum())
        self.zero = zero_mask(self.eigenvalues)
        self.conditional_mean_variance = float(sq[self.zero].sum() - self.mean**2)

    def variance(self) -> float:
        return self.total_mass - self.mean**2

    def zero_mass(self) -> float:
        return float((self.coefficients[self.zero] ** 2).sum())

    def entries(self):
        for l, lam, c in zip(self.levels, self.eigenvalues, self.coefficients):
            yield int(l), float(lam), float(c)


def level_piece(f: BooleanFunction, basis: SpectralBasis) -> tuple[int, np.ndarray, np.ndarray]:
    """One level's part of f's spectral profile: the level, the basis eigenvalues,
    and f's coefficients against the basis lifted to the full space, scaled by
    sqrt(C(n, l) / 2^n)."""
    space = basis.space
    if space.n != f.n:
        raise ValueError(f"basis is for n={space.n}, function for n={f.n}")
    scale = math.sqrt(space.size / 2.0**f.n)
    return space.level, basis.eigenvalues, scale * basis.coefficients(f.values[space.words])


def spectral_profile(f: BooleanFunction, pieces) -> SpectralProfile:
    """Join f's level_piece of each level 0..n of one graph, given in level order;
    any other list of pieces is refused."""
    n = f.n
    found = [(level, lam.size) for level, lam, _ in pieces]
    if found != [(level, math.comb(n, level)) for level in range(n + 1)]:
        raise ValueError(f"need the pieces of levels 0..{n} in level order, with "
                         f"C({n}, level) entries each; got (level, entries) {found}")
    return SpectralProfile(
        n=n,
        levels=np.repeat(np.arange(n + 1, dtype=np.int64), [size for _, size in found]),
        eigenvalues=np.concatenate([lam for _, lam, _ in pieces]),
        coefficients=np.concatenate([coeffs for _, _, coeffs in pieces]),
        mean=f.mean(),
    )


def bases_profile(f: BooleanFunction, bases) -> SpectralProfile:
    """spectral_profile of f from one graph's bases of levels 0..n, in level order."""
    return spectral_profile(f, [level_piece(f, basis) for basis in bases])


def exact_correlation(profile: SpectralProfile, t: float) -> float:
    """E[f(X_0) f(X_t)] from the profile; equals <f, f> at t = 0."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return float(np.sum(np.exp(-t * profile.eigenvalues) * profile.coefficients**2))


def exact_covariance(profile: SpectralProfile, t: float) -> float:
    """Cov(f(X_0), f(X_t)) under the uniform start."""
    return exact_correlation(profile, t) - profile.mean**2


def exact_flip_probability(profile: SpectralProfile, eps: float) -> float:
    """P(f(X_0) != f(X_eps))."""
    if eps < 0:
        raise ValueError(f"time must be >= 0, got {eps}")
    return 2.0 * float(
        np.sum((1.0 - np.exp(-eps * profile.eigenvalues)) * profile.coefficients**2))


def threshold_mask(lam: np.ndarray, k: float, side: str) -> np.ndarray:
    """Which of lam are "<=" k, ">=" k or ">" k: the one threshold rule.

    A value within THRESH_SLACK (relative) plus 1e-12 of k counts as equal
    to it, so a threshold on an eigenvalue takes its whole cluster however
    the solver rounded each member.
    """
    if side == ">=":
        return lam >= k * (1.0 - THRESH_SLACK) - 1e-12
    hi = k * (1.0 + THRESH_SLACK) + 1e-12
    return {"<=": lam <= hi, ">": lam > hi}[side]


def band_mask(lam: np.ndarray, k: float, side: str) -> np.ndarray:
    """Which nonzero eigenvalues of lam are on one side of k > 0.

    side "<=" is the band (0, k], ">=" is [k, inf) and ">" is (k, inf), by
    threshold_mask; the zero block, "<=" and ">" partition every spectrum.
    """
    if not k > 0:
        raise ValueError(f"threshold must be > 0, got {k}")
    return ~zero_mask(lam) & threshold_mask(lam, k, side)


def band_mass(profile: SpectralProfile, k: float, side: str) -> float:
    """Squared-coefficient mass over band_mask(eigenvalues, k, side)."""
    mask = band_mask(profile.eigenvalues, k, side)
    return float((profile.coefficients[mask] ** 2).sum())


def mass_by_eigenvalue(profile: SpectralProfile) -> list[tuple[float, float]]:
    """(eigenvalue, mass) per group_eigenvalues cluster of the sorted spectrum.

    A cluster is named by its smallest member; its mass is summed left to
    right in the stable sort order.
    """
    order = np.argsort(profile.eigenvalues, kind="stable")
    lam = profile.eigenvalues[order]
    sq = profile.coefficients[order] ** 2
    return [(float(lam[g[0]]), float(np.cumsum(sq[g[0]:g[-1] + 1])[-1]))
            for g in group_eigenvalues(lam)]


def profile_csv_rows(profile: SpectralProfile) -> list[tuple[int, float, float]]:
    """(level, eigenvalue, coeff_sq) rows in enumeration order."""
    return [(l, lam, c * c) for l, lam, c in profile.entries()]


def profile_summary(profile: SpectralProfile) -> dict:
    return {
        "mean": profile.mean,
        "variance": profile.variance(),
        "conditional_mean_variance": profile.conditional_mean_variance,
        "mass_by_eigenvalue": [
            {"eigenvalue": v, "mass": m} for v, m in mass_by_eigenvalue(profile)
        ],
    }
