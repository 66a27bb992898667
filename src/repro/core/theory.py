"""Marchenko–Pastur analysis of the HDC encoding kernel (Eqs. 2–7, Figs. 2 & 4).

The paper analyses the Gaussian random-projection kernel ``k_{i,j} ~ N(0, 1)``
of shape ``(N_r, N_c) = (D, features)`` through the Marchenko–Pastur (MP)
distribution of its singular-value spectrum, with aspect ratio
``q = N_c / N_r``.  The key quantities:

* **MP support** — the squared singular values (eigenvalues of the sample
  covariance) lie in ``[λ⁻, λ⁺] = [σ²(1 − √q)², σ²(1 + √q)²]``.
* **Equation 2** — the mean singular value grows like
  ``µ_λ ∼ (λ_max − λ_min)^{3/2} / (3πq)``.
* **Equation 3** — the variance ``σ²_λ`` decomposes into three terms (T1, T2,
  T3 — Equations 4–6) which each converge to a constant as ``q → ∞``
  (Figure 2), so the spread of the spectrum stays bounded while its mean
  grows with ``D``.
* **Consequence (Figure 4)** — the ratio of minor to major axis of the kernel
  ellipsoid, ``A_S / A_L = λ_min / λ_max``, approaches 1 as the dimension
  grows: the kernel becomes "circular" and the encoded data spreads uniformly
  instead of exploiting the structure of the input, which is the paper's
  argument for why moderate per-learner dimensions utilise the space better.

The functions below provide both the analytic expressions and empirical
spectra of actual encoders so the theory can be checked against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "marchenko_pastur_bounds",
    "singular_value_bounds",
    "mean_lambda",
    "variance_terms",
    "kernel_axis_ratio",
    "KernelSpectrum",
    "empirical_spectrum",
    "term_convergence_table",
]


def marchenko_pastur_bounds(q: float) -> tuple[float, float]:
    """Support ``[λ⁻, λ⁺]`` of the MP distribution of squared singular values.

    ``q`` is the aspect ratio ``N_c / N_r``; the entries are the paper's
    N(0, 1), so ``σ = 1``.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    sqrt_q = np.sqrt(q)
    lower = (1.0 - sqrt_q) ** 2
    upper = (1.0 + sqrt_q) ** 2
    return float(lower), float(upper)


def singular_value_bounds(q: float) -> tuple[float, float]:
    """Bounds ``[λ_min, λ_max]`` on the singular values themselves (√ of MP support)."""
    lower, upper = marchenko_pastur_bounds(q)
    return float(np.sqrt(lower)), float(np.sqrt(upper))


def mean_lambda(q: float) -> float:
    """Equation 2: ``µ_λ ≈ (λ_max − λ_min)^{3/2} / (3πq)``."""
    lam_min, lam_max = singular_value_bounds(q)
    return float((lam_max - lam_min) ** 1.5 / (3.0 * np.pi * q))


def variance_terms(q: float) -> tuple[float, float, float]:
    """The three terms T1, T2, T3 of Equation 3 (before the 1/(2πσ²) prefactor).

    * T1 = (λ_max² − λ_min²) / 2 / q            (Equation 4 studies its limit)
    * T2 = −2 µ (λ_max − λ_min) / q             (Equation 5 → 0)
    * T3 = µ² (ln|λ_max| − ln|λ_min|) / q       (Equation 6 → 0)
    """
    lam_min, lam_max = singular_value_bounds(q)
    mu = mean_lambda(q)
    term1 = 0.5 * (lam_max**2 - lam_min**2) / q
    term2 = -2.0 * mu * (lam_max - lam_min) / q
    # Guard the logarithm: at q = 1 the lower edge is exactly zero.
    safe_min = max(lam_min, 1e-12)
    term3 = mu**2 * (np.log(abs(lam_max)) - np.log(abs(safe_min))) / q
    return float(term1), float(term2), float(term3)


def kernel_axis_ratio(q: float) -> float:
    """Minor/major axis ratio ``A_S / A_L = λ_min / λ_max`` of the kernel ellipsoid.

    Note that with ``q = N_c / N_r`` and a *fixed* number of input features
    ``N_c``, growing the hyperdimension ``D = N_r`` drives ``q → 0`` and this
    ratio toward 1 — the "circular" regime the paper associates with wasted
    space (Figure 4).
    """
    lam_min, lam_max = singular_value_bounds(q)
    if lam_max == 0:
        return 1.0
    return float(lam_min / lam_max)


@dataclass(frozen=True)
class KernelSpectrum:
    """Empirical singular-value spectrum of an encoder projection matrix."""

    singular_values: np.ndarray
    q: float
    mean: float
    variance: float
    axis_ratio: float


def empirical_spectrum(projection: np.ndarray) -> KernelSpectrum:
    """Singular-value statistics of a concrete projection matrix.

    ``projection`` has shape ``(N_r, N_c) = (D, features)``; the aspect ratio
    reported is ``q = N_c / N_r`` following the paper's convention.
    """
    matrix = np.asarray(projection, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("projection must be a 2-D matrix")
    n_rows, n_cols = matrix.shape
    singular_values = np.linalg.svd(matrix / np.sqrt(n_rows), compute_uv=False)
    return KernelSpectrum(
        singular_values=singular_values,
        q=n_cols / n_rows,
        mean=float(np.mean(singular_values)),
        variance=float(np.var(singular_values)),
        axis_ratio=float(singular_values.min() / singular_values.max()),
    )


def term_convergence_table(q_values: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The Figure 2 sweep: T1, T2, T3 evaluated over a grid of ``q`` values.

    Returns a dictionary with keys ``q``, ``T1``, ``T2``, ``T3`` ready for
    tabulation; the experiment checks that T2 and T3 vanish and T1 converges
    to a constant as ``q`` grows (Equations 4–7).
    """
    if q_values is None:
        q_values = np.linspace(1.0, 100.0, 100)
    q_values = np.asarray(q_values, dtype=float)
    if np.any(q_values <= 0):
        raise ValueError("all q values must be positive")
    terms = np.array([variance_terms(float(q)) for q in q_values])
    return {
        "q": q_values,
        "T1": terms[:, 0],
        "T2": terms[:, 1],
        "T3": terms[:, 2],
    }
