"""Cache-aware proposal planning: the federation β preference hook.

The negotiation protocol usually computes the root proposal from the
platform (``root_proposal`` = ``r_root`` + the fastest edge's bandwidth),
but several callers are free to choose among a *set* of admissible
proposals — a federation tenant re-negotiating under churn may accept any
λ at or above the saturation point (they all yield the platform's optimal
throughput; only the nominal period differs), an operator may probe a
grid of what-if proposals, a recovery path may replay a previous epoch's
λ.  Whenever such freedom exists, picking a β the incremental solver has
*already memoised* turns the whole negotiation into a cache replay.

:func:`plan_proposal` is that tie-breaker.  It never invents a proposal:
the caller supplies the admissible candidates (and stays responsible for
their admissibility), and the planner merely orders the choice —

1. a candidate with an **exact memo** at the root fingerprint (full
   replay, zero node evaluations);
2. a candidate at or above the root's **saturation threshold** with a
   saturated memo (same: full replay);
3. a candidate the **shared memo store** has an answer for, when a
   federation store is attached (a replay of another tenant's solve: one
   fetch instead of a solve);
4. otherwise the caller's *default*, or the smallest candidate (smallest
   keeps the nominal period — and hence buffer bounds — tightest).

Exactness is preserved by construction: the chosen β is one of the
caller's admissible candidates, and the solve under it is the same
bit-exact BW-First result a fresh ``bw_first(tree, proposal=β)`` run
produces, as the tests assert.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from ..core.incremental import IncrementalSolver
from ..exceptions import ScheduleError


def plan_proposal(
    solver: IncrementalSolver,
    candidates: Iterable,
    default: Optional[Fraction] = None,
    shared=None,
) -> Fraction:
    """Choose a proposal among admissible *candidates*, preferring memoised β.

    *solver* supplies the root fingerprint's memo state
    (:meth:`~repro.core.incremental.IncrementalSolver.memoised_betas`);
    *shared*, when given, is a federation memo store exposing
    ``betas(digest) -> {"saturated_above": β | None, "exact": [β, …]}``
    (exact rationals) and is consulted only if the local cache prefers
    nothing.  Returns the chosen candidate (never anything outside
    *candidates* — admissibility is the caller's contract), falling back
    to *default* if supplied and admissible, else the smallest candidate.
    """
    cands = sorted({Fraction(c) for c in candidates})
    if not cands:
        raise ScheduleError("plan_proposal needs at least one candidate")
    root = solver.tree.root
    choice = _covered(cands, solver.memoised_betas(root))
    if choice is None and shared is not None:
        choice = _covered(cands, shared.betas(solver.digest(root)) or {})
    if choice is not None:
        return choice
    if default is not None and Fraction(default) in cands:
        return Fraction(default)
    return cands[0]


def _covered(cands, info: dict) -> Optional[Fraction]:
    """The first of the sorted *cands* that *info* — ``{"saturated_above":
    threshold | None, "exact": [β, …]}`` — answers from memory: an exact
    memo first, then saturated coverage."""
    exact = set(info.get("exact", ()))
    for beta in cands:
        if beta in exact:
            return beta
    threshold = info.get("saturated_above")
    if threshold is not None:
        for beta in cands:
            if beta >= threshold:
                return beta
    return None
