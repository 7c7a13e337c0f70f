"""Exact rational arithmetic helpers used throughout the library.

The paper (Section 3) assumes all node processing times ``w_i`` and link
communication times ``c_ij`` are *positive rational numbers*; ``w_i = +inf``
is allowed to model pure forwarders (switches).  Every algorithm in
:mod:`repro.core` and :mod:`repro.schedule` therefore runs on
:class:`fractions.Fraction` end-to-end, which lets the test-suite assert the
paper's propositions with exact equality instead of floating-point
tolerances.

This module centralises:

* :data:`INFINITY` — the sentinel used for ``w_i = +inf``,
* :func:`as_fraction` — tolerant conversion of user input to ``Fraction``,
* :func:`rate_of` / :func:`time_of` — the ``r = 1/w`` duality with the
  conventions ``1/inf = 0`` and ``1/0 = inf`` from the paper,
* lcm helpers over fractions (used by Lemma 1 to build integer periods),
* :func:`pair_sub` / :func:`pair_add` — exact arithmetic on reduced
  ``(numerator, denominator)`` int pairs, for the loops that run
  Algorithm 1 without a ``Fraction`` per operation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Tuple, Union

from ..exceptions import PlatformError

#: a decimal exponent in a rational string, checked before ``Fraction``
#: expands it: ``"1e100000000"`` (11 bytes) would build a 330-Mbit int
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")
_MAX_EXPONENT = 1000

#: Sentinel for an infinite processing time (a node with no computing power,
#: e.g. a network switch).  Comparisons like ``Fraction(3) < INFINITY`` work
#: because ``float('inf')`` compares correctly against ``Fraction``.
INFINITY: float = math.inf

#: Anything :func:`as_fraction` accepts.
FractionLike = Union[int, str, Fraction, float]

ZERO = Fraction(0)
ONE = Fraction(1)


def is_infinite(value: object) -> bool:
    """Return ``True`` iff *value* is the :data:`INFINITY` sentinel."""
    return isinstance(value, float) and math.isinf(value) and value > 0


def as_fraction(value: FractionLike) -> Fraction:
    """Convert *value* to an exact :class:`~fractions.Fraction`.

    Accepted inputs:

    * ``int`` and ``Fraction`` — taken as-is;
    * ``str`` — parsed by ``Fraction`` (``"18/5"``, ``"3.6"``, ``"7"``);
    * ``float`` — converted through its ``repr`` so that ``0.1`` becomes
      ``1/10`` (the value the user wrote) rather than the ugly binary
      expansion ``Fraction(0.1)`` would produce.

    Raises :class:`~repro.exceptions.PlatformError` for NaN/inf floats,
    unparseable strings and decimal exponents beyond ±1000; use
    :data:`INFINITY` explicitly for infinite weights.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise PlatformError(f"cannot interpret boolean {value!r} as a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise PlatformError(
                f"cannot convert {value!r} to a rational number; "
                "use repro.INFINITY for infinite processing times"
            )
        return Fraction(repr(value))
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
                raise PlatformError(
                    f"the exponent of {value!r} exceeds ±{_MAX_EXPONENT}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise PlatformError(f"cannot parse {value!r} as a rational number") from exc
    raise PlatformError(f"cannot interpret {type(value).__name__} as a rational number")


def as_weight(value: FractionLike) -> Union[Fraction, float]:
    """Convert *value* to a node weight: a positive ``Fraction`` or INFINITY.

    The paper disallows ``w_i = 0`` (it would allow infinitely fast
    processing) but allows ``w_i = +inf``; the strings ``"inf"``,
    ``"infinity"`` and ``"+inf"`` are accepted as spellings of the latter.
    """
    if is_infinite(value):
        return INFINITY
    if isinstance(value, str) and value.strip().lower() in {"inf", "infinity", "+inf"}:
        return INFINITY
    frac = as_fraction(value)
    if frac <= 0:
        raise PlatformError(f"node weight must be positive (got {frac})")
    return frac


def as_cost(value: FractionLike) -> Fraction:
    """Convert *value* to an edge communication time: a positive ``Fraction``.

    The paper requires all ``c_ij`` to be positive rationals (a zero cost
    would allow infinite bandwidth).
    """
    frac = as_fraction(value)
    if frac <= 0:
        raise PlatformError(f"edge communication time must be positive (got {frac})")
    return frac


def rate_of(weight: Union[Fraction, float]) -> Fraction:
    """Return the rate ``1/weight`` with the paper's convention ``1/inf = 0``."""
    if is_infinite(weight):
        return ZERO
    if weight <= 0:
        raise PlatformError(f"cannot take the rate of non-positive weight {weight}")
    return ONE / weight


def time_of(rate: Fraction) -> Union[Fraction, float]:
    """Return the time-per-task ``1/rate`` with the convention ``1/0 = inf``."""
    if rate < 0:
        raise PlatformError(f"cannot take the time of negative rate {rate}")
    if rate == 0:
        return INFINITY
    return ONE / rate


def pair_sub(an: int, ad: int, bn: int, bd: int) -> Tuple[int, int]:
    """``a − b`` on pairs with positive denominators, reduced with one
    ``gcd``."""
    n = an * bd - bn * ad
    d = ad * bd
    g = math.gcd(n, d)
    return n // g, d // g


def pair_add(an: int, ad: int, bn: int, bd: int) -> Tuple[int, int]:
    """``a + b`` on pairs with positive denominators, reduced with one
    ``gcd``."""
    n = an * bd + bn * ad
    d = ad * bd
    g = math.gcd(n, d)
    return n // g, d // g


def lcm_ints(values: Iterable[int]) -> int:
    """Least common multiple of positive integers; 1 for an empty iterable."""
    result = 1
    for v in values:
        if v <= 0:
            raise ValueError(f"lcm is only defined for positive integers (got {v})")
        result = result * v // math.gcd(result, v)
    return result


def lcm_fractions(*values: FractionLike) -> Fraction:
    """Least common multiple of positive rationals.

    The lcm of ``a`` and ``b`` is the generator of ``aℤ ∩ bℤ``: the smallest
    positive rational that is an integer multiple of both.  Used to relate
    periods once the minimal consumption period ``T^w`` may be non-integer.
    """
    result = Fraction(1)
    for v in values:
        f = as_fraction(v)
        if f <= 0:
            raise ValueError(f"lcm is only defined for positive values (got {f})")
        den = result.denominator * f.denominator // math.gcd(
            result.denominator, f.denominator
        )
        a = result.numerator * (den // result.denominator)
        b = f.numerator * (den // f.denominator)
        result = Fraction(a * b // math.gcd(a, b), den)
    return result


def lcm_denominators(values: Iterable[Fraction]) -> int:
    """LCM of the denominators of *values* (in lowest terms); 1 if empty.

    This is the operation Lemma 1 uses to turn per-time-unit rational rates
    ``η_i = ν_i/μ_i`` into the shortest period over which an integer number
    of tasks is handled.
    """
    return lcm_ints(v.denominator for v in values)


def scaled_integer(value: Fraction, period: Union[int, Fraction]) -> int:
    """Return ``value * period`` checked to be a non-negative integer.

    Used when materialising the integer task counts ``φ``, ``χ`` and ``ψ`` of
    equations (2)–(4): the periods are constructed so that the products are
    integral, and this helper asserts it.  The product is taken on the
    numerators and denominators (``num·T // den``): this runs several times
    per node of every plan, and a ``Fraction`` product would normalise two
    rationals to answer a divisibility question.
    """
    scale = period if isinstance(period, (int, Fraction)) else Fraction(period)
    count, remainder = divmod(value.numerator * scale.numerator,
                              value.denominator * scale.denominator)
    if remainder:
        raise ValueError(
            f"{value} * {period} = {value * scale} is not an integer")
    if count < 0:
        raise ValueError(f"{value} * {period} = {count} is negative")
    return count


def format_fraction(value: Union[Fraction, float]) -> str:
    """Human-readable rendering: ``"3"``, ``"18/5"`` or ``"inf"``."""
    if is_infinite(value):
        return "inf"
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"
