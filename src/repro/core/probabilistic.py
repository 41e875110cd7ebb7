"""The default probabilistic advance-reservation algorithm (Section 6.3).

Model (Figure 3): two neighboring cells ``C_q`` (this cell) and ``C_s``.
Over a look-ahead window ``[t, t+T]``:

* an existing connection of type ``i`` in ``C_q`` stays with probability
  ``p_s,i = exp(-mu_i * T)``;
* a connection of type ``i`` in ``C_s`` hands into ``C_q`` with probability
  ``p_m,i = (1 - exp(-mu_i * T)) * h_q``
  (it leaves within ``T`` and, when leaving, hands off rather than
  terminating with probability ``h_q``);
* double handoffs within ``T`` and arrivals admitted during ``[t, t+T]``
  are ignored (later arrivals lose space conflicts).

With ``N_i`` the admitted count of type ``i`` in ``C_q`` and ``s_i`` the
count in ``C_s``, the stayers ``j_i ~ Binomial(N_i, p_s,i)`` and the
arrivals ``l_i ~ Binomial(s_i, p_m,i)`` are independent, and the
non-blocking probability is ``P_nb = P(sum_i b_min,i (j_i + l_i) <= B_c)``
(eqn. 5).  Admission of a new connection requires ``P_nb >= 1 - P_QOS``
(eqn. 6), and the bandwidth to advance-reserve is
``b_resv,q >= B_c - sum_i b_min,i N_i`` (eqn. 7).

The distribution of the weighted binomial sum is computed *exactly* by
discrete convolution (bandwidths are scaled to integers first).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "stay_probability",
    "handoff_in_probability",
    "weighted_binomial_sum_pmf",
    "nonblocking_probability",
    "reserved_bandwidth",
    "ProbabilisticAdmission",
]


def stay_probability(mu: float, window: float) -> float:
    """``p_s = exp(-mu * T)``: connection still alive and resident at t+T."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    return math.exp(-mu * window)


def handoff_in_probability(mu: float, window: float, handoff_prob: float) -> float:
    """``p_m = (1 - exp(-mu * T)) * h``: neighbor connection hands in by t+T."""
    if not 0.0 <= handoff_prob <= 1.0:
        raise ValueError(f"handoff_prob must be in [0,1], got {handoff_prob}")
    return (1.0 - stay_probability(mu, window)) * handoff_prob


#: Bound on each memo table below but the ``P_nb`` one.  The full Figure 6
#: sweep (four windows) touches 368 ``(n, p)`` pairs and five bandwidth
#: tuples; each entry holds at most a few hundred floats.
_MEMO_SIZE = 1024

#: Bound on the shared ``P_nb`` memo.  A ``fig6`` benchmark pass looks up
#: 10,633 distinct (parameters, occupancy) keys; the full Figure 6 sweep's
#: 34,664 pass through it one parameter set at a time, so none re-misses.
_NONBLOCKING_MEMO_SIZE = 1 << 14

#: Cephes ``LS2PI``, ``log(sqrt(2 pi))``.
_LOG_SQRT_2PI = 0.91893853320467274178


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only, so no caller can corrupt the memo."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _log_gamma(m: int) -> float:
    """``log Gamma(m)`` for a positive integer ``m``, equal to
    ``scipy.special.gammaln(m)`` bit for bit.

    It runs Cephes ``lgam``'s float operations in Cephes' order, with
    ``math.log`` calling the same C-library ``log``.  ``math.lgamma`` and
    ``np.log`` both round differently on some integers, and one flipped
    bit can flip an admission that sits on the ``1 - P_QOS`` threshold.
    """
    if m < 13:
        # (m - 1)! < 2**53, so Cephes' float product is exact.
        return math.log(float(math.factorial(m - 1)))
    x = float(m)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    # Cephes' Stirling corrections in p = 1/x**2, Horner order.
    p = 1.0 / (x * x)
    if x >= 1000.0:
        correction = (
            7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3
        ) * p + 0.0833333333333333333333
    else:
        correction = (
            (
                (8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                + 7.93650340457716943945e-4
            )
            * p
            - 2.77777777730099687205e-3
        ) * p + 8.33333333333331927722e-2
    return q + correction / x


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Exact binomial pmf over 0..n (log-space for numerical robustness).

    Memoized and read-only: the look-ahead test asks for the same few
    ``(n, p)`` pairs thousands of times per simulated run.
    """
    if n == 0:
        return _frozen(np.array([1.0]))
    if p <= 0.0:
        pmf = np.zeros(n + 1)
        pmf[0] = 1.0
        return _frozen(pmf)
    if p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[n] = 1.0
        return _frozen(pmf)
    # log_factorial[j] = log(j!), so reversed it is log((n - k)!).
    log_factorial = np.array([_log_gamma(m) for m in range(1, n + 2)])
    k = np.arange(n + 1)
    log_pmf = (
        log_factorial[n]
        - log_factorial
        - log_factorial[::-1]
        + k * math.log(p)
        + (n - k) * math.log(1.0 - p)
    )
    return _frozen(np.exp(log_pmf))


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _placed_binomial_pmf(n: int, p: float, weight: int) -> np.ndarray:
    """``weight * Binomial(n, p)`` on the integer load grid (read-only)."""
    placed = np.zeros(n * weight + 1)
    placed[::weight] = _binomial_pmf(n, p)
    return _frozen(placed)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _scale_to_integers(bandwidths: Tuple[float, ...]) -> Tuple[Tuple[int, ...], float]:
    """Scale bandwidths to a common integer grid; returns (ints, unit)."""
    for scale in (1, 2, 4, 5, 8, 10, 16, 20, 25, 50, 100, 1000):
        scaled = [b * scale for b in bandwidths]
        if all(abs(s - round(s)) < 1e-9 and round(s) >= 1 for s in scaled):
            return tuple(int(round(s)) for s in scaled), 1.0 / scale
    raise ValueError(
        f"bandwidths {list(bandwidths)} cannot be scaled to integers"
    )


def weighted_binomial_sum_pmf(
    groups: Sequence[Tuple[float, int, float]]
) -> Tuple[np.ndarray, float]:
    """Exact pmf of ``sum_g b_g * Binomial(n_g, p_g)``.

    ``groups`` is a sequence of ``(bandwidth, count, probability)``.
    Returns ``(pmf, unit)`` where ``pmf[k]`` is the probability of total
    load ``k * unit``; ``pmf`` is a fresh array the caller may modify.
    """
    for _, n, _ in groups:
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
    active = [(b, n, p) for b, n, p in groups if n > 0]
    if not active:
        return np.array([1.0]), 1.0
    weights, unit = _scale_to_integers(tuple(b for b, _, _ in active))
    pmf = np.array([1.0])
    for (bw, (_, n, p)) in zip(weights, active):
        pmf = np.convolve(pmf, _placed_binomial_pmf(n, p, bw))
    return pmf, unit


def nonblocking_probability(
    capacity: float, groups: Sequence[Tuple[float, int, float]]
) -> float:
    """``P_nb = P(total load <= capacity)`` — eqn. (5)."""
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    pmf, unit = weighted_binomial_sum_pmf(groups)
    limit = int(math.floor(capacity / unit + 1e-9))
    return float(pmf[: limit + 1].sum()) if limit >= 0 else 0.0


def reserved_bandwidth(
    capacity: float, bandwidths: Sequence[float], admitted: Sequence[int]
) -> float:
    """Eqn. (7): ``b_resv = max(0, B_c - sum_i b_min,i * N_i)``."""
    if len(bandwidths) != len(admitted):
        raise ValueError("bandwidths and admitted must have equal length")
    return max(0.0, capacity - sum(b * n for b, n in zip(bandwidths, admitted)))


@dataclass(frozen=True)
class _TypeParams:
    bandwidth: float
    mu: float
    handoff_prob: float


_Survival = Tuple[Tuple[float, float, float], ...]


def _survival_groups(
    survival: _Survival,
    local_counts: Sequence[int],
    neighbor_counts: Sequence[int],
) -> List[Tuple[float, int, float]]:
    """The (bandwidth, count, probability) groups of eqns. (3)-(4)."""
    if len(local_counts) != len(survival) or len(neighbor_counts) != len(
        survival
    ):
        raise ValueError("counts must have one entry per type")
    groups: List[Tuple[float, int, float]] = []
    for (bandwidth, p_s, p_m), n, s in zip(survival, local_counts, neighbor_counts):
        groups.append((bandwidth, int(n), p_s))
        groups.append((bandwidth, int(s), p_m))
    return groups


@functools.lru_cache(maxsize=_NONBLOCKING_MEMO_SIZE, typed=True)
def _nonblocking(
    capacity: float,
    survival: _Survival,
    local_counts: Tuple[int, ...],
    neighbor_counts: Tuple[int, ...],
) -> float:
    """``P_nb`` memo shared by every controller with equal parameters.

    ``P_nb`` does not depend on ``P_QOS``, so the controllers of one
    window that differ only in ``P_QOS`` share entries.
    """
    return nonblocking_probability(
        capacity, _survival_groups(survival, local_counts, neighbor_counts)
    )


class ProbabilisticAdmission:
    """Admission controller implementing the Section 6.3 design rule.

    Parameters
    ----------
    capacity:
        The homogeneous per-cell bandwidth ``B_c``.
    window:
        The look-ahead window ``T``.
    p_qos:
        Target handoff-dropping bound ``P_QOS``.
    types:
        Per-type ``(bandwidth, mu, handoff_prob)``; indices are the type ids.
    """

    def __init__(
        self,
        capacity: float,
        window: float,
        p_qos: float,
        types: Sequence[Tuple[float, float, float]],
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0.0 < p_qos <= 1.0:
            raise ValueError(f"p_qos must be in (0, 1], got {p_qos}")
        self.capacity = capacity
        self.window = window
        self.p_qos = p_qos
        self.types = tuple(_TypeParams(*t) for t in types)
        for params in self.types:
            if params.bandwidth <= 0:
                raise ValueError(
                    f"bandwidth must be positive, got {params.bandwidth}"
                )
        # Per-type (b_min, p_s, p_m): fixed for the controller's lifetime,
        # and computing them here rejects a bad mu or handoff probability
        # at construction rather than at the first admission.
        self._survival: _Survival = tuple(
            (
                params.bandwidth,
                stay_probability(params.mu, window),
                handoff_in_probability(params.mu, window, params.handoff_prob),
            )
            for params in self.types
        )

    def survival_groups(
        self, local_counts: Sequence[int], neighbor_counts: Sequence[int]
    ) -> List[Tuple[float, int, float]]:
        """Build the (bandwidth, count, probability) groups of eqns. (3)-(4)."""
        return _survival_groups(self._survival, local_counts, neighbor_counts)

    def nonblocking(
        self, local_counts: Sequence[int], neighbor_counts: Sequence[int]
    ) -> float:
        """``P_nb`` for the given occupancy (memoized)."""
        return _nonblocking(
            self.capacity,
            self._survival,
            tuple(local_counts),
            tuple(neighbor_counts),
        )

    def admit_new(
        self,
        ctype: int,
        local_counts: Sequence[int],
        neighbor_counts: Sequence[int],
    ) -> bool:
        """Admit a new type-``ctype`` connection? (eqn. 6 with N = n + e_k).

        The new connection joins the local survivor population; admission is
        granted iff the look-ahead non-blocking probability stays at or
        above ``1 - P_QOS``.
        """
        bumped = list(local_counts)
        bumped[ctype] += 1
        return self.nonblocking(bumped, neighbor_counts) >= 1.0 - self.p_qos

    def max_admissible_counts(
        self,
        local_counts: Sequence[int],
        neighbor_counts: Sequence[int],
        max_extra: int = 200,
    ) -> List[int]:
        """Greedy ``N_i``: grow counts while eqn. (6) keeps holding.

        Starting from the current occupancy, admit hypothetical connections
        (cheapest bandwidth first) until the non-blocking constraint would
        break; the result is the ``N_i`` vector that eqn. (7) sizes the
        reservation with.
        """
        counts = list(local_counts)
        order = sorted(
            range(len(self.types)), key=lambda i: self.types[i].bandwidth
        )
        for _ in range(max_extra):
            progressed = False
            for i in order:
                if self.admit_new(i, counts, neighbor_counts):
                    counts[i] += 1
                    progressed = True
                    break
            if not progressed:
                break
        return counts

    def reservation_for(self, admitted_counts: Sequence[int]) -> float:
        """Eqn. (7) reservation given the admitted-count vector."""
        return reserved_bandwidth(
            self.capacity,
            [t.bandwidth for t in self.types],
            list(admitted_counts),
        )
