"""Paired binomial sign test (§5.6).

The paper validates its improvements with a sign test: count the nodes
correctly clustered by method A but not B (``n_a``) and vice versa
(``n_b``); under the null hypothesis of no difference, each such
"discordant" node is a fair coin flip, so the probability of counts at
least as extreme as observed follows a Binomial(``n_a + n_b``, 0.5)
tail. The paper reports p-values as extreme as 1.0E-22767, far below
float underflow, so the result carries ``log10_p`` computed in log
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EvaluationError

__all__ = ["SignTestResult", "sign_test"]


def _log_binomial_tail(wins: int, n: int) -> float:
    """``log P[X >= wins]`` for ``X ~ Binomial(n, 1/2)`` in log space.

    Sums ``C(n, k) / 2^n`` for ``k = wins..n`` term by term using
    ``gammaln``, stopping once terms are negligible (they decay
    geometrically for ``wins > n/2``). Handles the extreme counts of
    §5.6 where ordinary floating point underflows.
    """
    from scipy.special import gammaln

    log_half_n = -n * np.log(2.0)
    log_terms: list[float] = []
    log_term = (
        gammaln(n + 1) - gammaln(wins + 1) - gammaln(n - wins + 1)
        + log_half_n
    )
    k = wins
    while k <= n:
        log_terms.append(log_term)
        if k == n:
            break
        ratio = (n - k) / (k + 1.0)
        if ratio <= 0:
            break
        log_term += np.log(ratio)
        # Terms shrink geometrically once past the mode; stop when the
        # remaining geometric tail cannot change the sum.
        if log_term < log_terms[0] - 40.0:
            break
        k += 1
    peak = max(log_terms)
    return float(
        peak + np.log(sum(np.exp(t - peak) for t in log_terms))
    )


@dataclass(frozen=True)
class SignTestResult:
    """Outcome of a paired sign test between methods A and B.

    Attributes
    ----------
    n_a_only:
        Nodes correct under A but not B.
    n_b_only:
        Nodes correct under B but not A.
    p_value:
        One-sided tail probability that the *winning* side's count (or
        larger) arises under the null; 0.0 when it underflows (see
        ``log10_p``).
    log10_p:
        ``log10`` of the p-value, computed in log space (finite even
        when ``p_value`` underflows to zero).
    winner:
        ``"a"``, ``"b"`` or ``"tie"``.
    """

    n_a_only: int
    n_b_only: int
    p_value: float
    log10_p: float
    winner: str


def sign_test(
    correct_a: np.ndarray,
    correct_b: np.ndarray,
) -> SignTestResult:
    """Paired binomial sign test on per-node correctness masks.

    Parameters
    ----------
    correct_a, correct_b:
        Boolean arrays (same length) marking which nodes each method
        clustered correctly — see
        :func:`repro.eval.fmeasure.correctly_clustered_mask`.

    Notes
    -----
    Concordant nodes (both correct or both incorrect) are ignored, as
    in any sign test. With zero discordant nodes the test is undefined
    and the p-value is reported as 1.0 (no evidence of difference).
    """
    a = np.asarray(correct_a, dtype=bool)
    b = np.asarray(correct_b, dtype=bool)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(
            "correctness masks must be 1-D arrays of equal length"
        )
    n_a_only = int(np.count_nonzero(a & ~b))
    n_b_only = int(np.count_nonzero(~a & b))
    n = n_a_only + n_b_only
    if n == 0:
        return SignTestResult(0, 0, 1.0, 0.0, "tie")
    from scipy import stats

    wins = max(n_a_only, n_b_only)
    # One-sided: P[X >= wins], X ~ Binomial(n, 1/2), in log space.
    log_p = stats.binom.logsf(wins - 1, n, 0.5)
    if not np.isfinite(log_p):
        # scipy's logsf underflows for paper-scale counts (the paper
        # reports p = 1.0E-22767); sum the tail directly in log space.
        log_p = _log_binomial_tail(wins, n)
    log10_p = float(log_p / np.log(10.0))
    p_value = float(np.exp(log_p))
    if n_a_only > n_b_only:
        winner = "a"
    elif n_b_only > n_a_only:
        winner = "b"
    else:
        winner = "tie"
        p_value = 1.0
        log10_p = 0.0
    return SignTestResult(n_a_only, n_b_only, p_value, log10_p, winner)
