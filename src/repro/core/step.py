"""One node's step of Algorithm 1 (Section 5) on reduced int pairs.

Offered λ, a node keeps ``α = min(r, λ)``, has ``δ = λ − α`` to delegate
and its whole send port, ``τ = 1``; it proposes ``β = min(δ, τ/c)`` to
each child in bandwidth order, and an answer — the child accepted ``a`` —
takes ``δ −= a``, ``τ −= a·c``.  :class:`Step` is the one statement of that
rule: :func:`~repro.core.bwfirst.bw_first`, the incremental solver, the
negotiation's actors and the infinite-tree walk drive it.  Every value is a
reduced ``(numerator, denominator)`` pair, denominator positive: a
subtraction costs one ``math.gcd`` and a comparison two products.
``Fraction`` is built only where a result leaves a walk, through
:class:`Fractions`, one object per distinct value.  The rule written on
``Fraction`` — ``bw_first`` as it was — is kept as the test suite's oracle
(``bw_first_fraction`` in ``tests/fraction_oracles.py``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Tuple


def accepted(beta_n: int, beta_d: int, theta_n: int,
             theta_d: int) -> Tuple[int, int]:
    """``a = β − θ``: what a child offered β took when it answered θ."""
    if not theta_n:
        return beta_n, beta_d
    n, d = beta_n * theta_d - theta_n * beta_d, beta_d * theta_d
    g = gcd(n, d)
    return n // g, d // g


class Fractions(dict):
    """Reduced pair → its ``Fraction``, built on first use: a walk's one
    conversion per distinct value.  A value an earlier map built (*older*)
    is taken from it instead, so equal values stay one object across the
    two maps."""

    __slots__ = ("older",)

    def __init__(self, older: Optional[Dict[Tuple[int, int], Fraction]] = None):
        super().__init__()
        self.older = {} if older is None else older

    def __missing__(self, pair: Tuple[int, int]) -> Fraction:
        value = self.older.get(pair)
        if value is None:
            value = Fraction(*pair)
        self[pair] = value
        return value


class Step:
    """λ, α, δ and τ of one node; a new step has λ = α = δ = 0, τ = 1.
    ``saturated``: every offer since :meth:`open` was port-limited."""

    __slots__ = ("lam_n", "lam_d", "alpha_n", "alpha_d", "delta_n", "delta_d",
                 "tau_n", "tau_d", "saturated")

    def __init__(self) -> None:
        self.lam_n = self.alpha_n = self.delta_n = 0
        self.lam_d = self.alpha_d = self.delta_d = self.tau_n = self.tau_d = 1
        self.saturated = True

    def open(self, lam_n: int, lam_d: int, rate_n: int, rate_d: int) -> None:
        """Take λ on a node of rate r: α = min(r, λ), δ = λ − α, τ = 1."""
        self.lam_n, self.lam_d = lam_n, lam_d
        if rate_n * lam_d < lam_n * rate_d:  # α = r, δ = λ − r
            self.alpha_n, self.alpha_d = rate_n, rate_d
            n, d = lam_n * rate_d - rate_n * lam_d, lam_d * rate_d
            g = gcd(n, d)
            self.delta_n, self.delta_d = n // g, d // g
        else:  # α = λ, δ = 0
            self.alpha_n, self.alpha_d = lam_n, lam_d
            self.delta_n, self.delta_d = 0, 1
        self.tau_n = self.tau_d = 1
        self.saturated = True

    def offer(self, c_n: int, c_d: int) -> Optional[Tuple[int, int]]:
        """β = min(δ, τ/c) for the next child, over an edge of cost c;
        ``None`` once δ or τ is spent."""
        delta_n, tau_n = self.delta_n, self.tau_n
        if delta_n <= 0 or tau_n <= 0:
            return None
        n, d = tau_n * c_d, self.tau_d * c_n  # τ/c, not yet reduced
        delta_d = self.delta_d
        if delta_n * d < n * delta_d:
            self.saturated = False
            return delta_n, delta_d
        g = gcd(n, d)
        return n // g, d // g

    def close(self, a_n: int, a_d: int, c_n: int, c_d: int) -> None:
        """A child accepted a over an edge of cost c: δ −= a, τ −= a·c."""
        if a_n:  # pair_sub written out: a close is one call on the hot loops
            delta_d, tau_d = self.delta_d, self.tau_d
            n, d = self.delta_n * a_d - a_n * delta_d, delta_d * a_d
            g = gcd(n, d)
            self.delta_n, self.delta_d = n // g, d // g
            a_d *= c_d
            n, d = self.tau_n * a_d - a_n * c_n * tau_d, tau_d * a_d
            g = gcd(n, d)
            self.tau_n, self.tau_d = n // g, d // g
