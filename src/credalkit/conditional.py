"""Conditional nonlinear expectations, composition, pasting, tower checks.

A credal kernel assigns one credal set per conditioning outcome and induces
the conditional sublinear expectation ``u -> max over the kernel set of
E[X(u, .)]``; a penalty kernel does the same with convex expectations.
Composing an outer expectation with a conditional one is backward
induction.  The pasted (rectangular) product of an outer set and a kernel
carries the composed functional as its support function, and comparing a
joint set against the pasting of its own marginal decides the tower
property, with explicit witnesses when it fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .credal import (
    CredalSet,
    SeparationCertificate,
    first_outside,
    marginal_set,
    sublinear_expectation,
)
from .errors import SizeGuardError, ValidationError
from .lp import DEFAULT_TOL, SimplexStalledError
from .penalty import PenaltyAtoms, _penalties, convex_expectation
from .spaces import (
    Kernel,
    OutcomeTable,
    ProbVector,
    ProductSpace,
    RandomVariable,
    Space,
    _check_same_space,
    _product_space,
    product,
    slice_u,
)

# Generator enumerations (pasting, composed atoms, probe grids, random
# probes, demo grids) refuse to build more than this many elements.
MAX_GENERATORS = 10**6


class CredalKernel(OutcomeTable):
    """A total map from outcomes of ``u_space`` to credal sets on a second space."""

    __slots__ = ()
    _entry = "credal set"

    @classmethod
    def constant(cls, u_space: Space, S: CredalSet) -> "CredalKernel":
        return cls(u_space, [S] * u_space.size)


class PenaltyKernel(OutcomeTable):
    """A total map from outcomes of ``u_space`` to penalty families."""

    __slots__ = ()
    _entry = "penalty family"


@dataclass(frozen=True)
class TowerWitness:
    """A payoff on which the joint and the composed evaluations differ."""

    payoff: RandomVariable
    lhs: float  # joint sublinear expectation
    rhs: float  # composed (outer of conditional) value
    gap: float  # rhs - lhs


@dataclass(frozen=True)
class TowerReport:
    rectangular: bool
    marginal: CredalSet
    pasting: CredalSet
    witness: Optional[TowerWitness]
    # vertex of the pasting outside the joint set, with its certificate
    pasting_vertex_outside: Optional[tuple[ProbVector, SeparationCertificate]]
    # vertex of the joint set outside the pasting, with its certificate
    set_vertex_outside: Optional[tuple[ProbVector, SeparationCertificate]]


def conditional_expectation(K: CredalKernel, X: RandomVariable) -> RandomVariable:
    """Per-outcome sublinear expectation of the sections of ``X``.

    Acts as the identity on payoffs that depend only on the conditioning
    coordinate.
    """
    return _per_outcome(K, X, sublinear_expectation)


def conditional_convex(K: PenaltyKernel, X: RandomVariable) -> RandomVariable:
    """Per-outcome convex expectation of the sections of ``X``."""
    return _per_outcome(K, X, convex_expectation)


def _per_outcome(K: OutcomeTable, X: RandomVariable,
                 evaluate: Callable[..., float]) -> RandomVariable:
    """``u -> evaluate(K[u], X(u, .))`` over the sections of ``X``."""
    _check_kernel_spaces(K, X)
    values = [
        evaluate(K[iu], slice_u(X, lab)) for iu, lab in enumerate(K.u_space.labels)
    ]
    return RandomVariable(K.u_space, values)


def compose(outer, K, X: RandomVariable) -> float:
    """Backward induction: outer expectation of the conditional one."""
    if isinstance(outer, CredalSet) and isinstance(K, CredalKernel):
        return sublinear_expectation(outer, conditional_expectation(K, X))
    if isinstance(outer, PenaltyAtoms) and isinstance(K, PenaltyKernel):
        return convex_expectation(outer, conditional_convex(K, X))
    raise ValidationError("compose needs both-credal or both-penalty inputs")


def _check_kernel_spaces(K, X) -> None:
    space = _product_space(X.space, "conditional expectation needs a payoff on a product space")
    _check_same_space(space.u_space, K.u_space, "conditional expectation")
    _check_same_space(space.v_space, K.v_space, "conditional expectation")


def _selections(n_outer: int, counts: Sequence[int]) -> np.ndarray:
    """Every selection as one row: the outer index, then one choice per outcome.

    ``row[1 + iu]`` ranges over ``range(counts[iu])``; the outer index varies
    slowest, the last choice fastest.  Refuses more than ``MAX_GENERATORS`` rows.
    """
    shape = (n_outer, *counts)
    if math.prod(shape) > MAX_GENERATORS:
        raise SizeGuardError(f"generator enumeration exceeds {MAX_GENERATORS} elements")
    return np.indices(shape).reshape(len(shape), -1).T


def _products(outer: np.ndarray, tables: Sequence[np.ndarray], sel: np.ndarray) -> np.ndarray:
    """Row ``r`` joins, over the outcomes ``u``, ``outer[sel[r, 0], u]`` times
    row ``sel[r, 1 + u]`` of ``tables[u]``: the product of the selected rows."""
    q = outer[sel[:, 0]]
    return np.hstack([q[:, [iu]] * T[sel[:, 1 + iu]] for iu, T in enumerate(tables)])


def pasting(SU: CredalSet, K: CredalKernel) -> CredalSet:
    """The rectangular product: all ``Q x R`` with ``Q`` in the outer set
    and ``R(u)`` in the kernel set at ``u``.

    Its vertices are the distinct products of the factors' vertices, so no
    LP runs: if ``Q x R = l P1 + (1-l) P2`` in the pasting, the U-marginals
    give ``Q1 = Q2 = Q`` as ``Q`` is extreme, then the conditionals give
    ``R1(u) = R2(u) = R(u)`` wherever ``Q(u) > 0``, so ``P1 = P2``; outcomes
    with ``Q(u) = 0`` only repeat products, which the constructor drops.
    """
    _check_same_space(SU.space, K.u_space, "pasting")
    sel = _selections(SU.n_vertices, [S.n_vertices for S in K.table])
    rows = _products(SU.matrix, [S.matrix for S in K.table], sel)
    return CredalSet.from_rows(ProductSpace(SU.space, K.v_space), rows, canonical=True)


def composed_atoms(AU: PenaltyAtoms, K: PenaltyKernel) -> PenaltyAtoms:
    """The penalty family generating the composed convex expectation.

    One atom per (outer atom, per-outcome atom selection): the product
    measure with the outer cost plus the outer-weighted selected kernel
    costs.  Its convex expectation equals ``compose(AU, K, .)`` for every
    payoff.
    """
    _check_same_space(AU.space, K.u_space, "composed atoms")
    sel = _selections(AU.n_atoms, [A.n_atoms for A in K.table])
    q = AU.points[sel[:, 0]]
    kernel_cost = 0.0
    for iu, A in enumerate(K.table):
        kernel_cost = kernel_cost + q[:, iu] * A.costs[sel[:, 1 + iu]]
    rows = _products(AU.points, [A.points for A in K.table], sel)
    space = ProductSpace(AU.space, K.v_space)
    return PenaltyAtoms.from_rows(space, zip(rows, AU.costs[sel[:, 0]] + kernel_cost))


def check_tower(S: CredalSet, K: CredalKernel, tol: float = DEFAULT_TOL) -> TowerReport:
    """Decide whether ``S`` equals the pasting of its own marginal with ``K``.

    Equality is the exact criterion for the dynamic-programming identity
    between the joint evaluation and the composed one.  On failure the
    report carries explicit evidence for each violated inclusion: a pasting
    vertex outside ``S`` yields a payoff with composed value above the
    joint one (the primary witness), while a vertex of ``S`` outside the
    pasting yields a membership certificate and a payoff with joint value
    above the composed one.
    """
    _product_space(S.space, "check_tower needs a credal set on a product space")
    marginal = marginal_set(S, tol)
    pasted = pasting(marginal, K)

    pasting_outside = first_outside(pasted, S, tol)
    set_outside = first_outside(S, pasted, tol)
    outside = pasting_outside or set_outside
    witness = None
    if outside is not None:
        X = outside[1].witness
        lhs = sublinear_expectation(S, X)
        rhs = compose(marginal, K, X)
        witness = TowerWitness(X, lhs, rhs, rhs - lhs)
    return TowerReport(outside is None, marginal, pasted, witness,
                       pasting_outside, set_outside)


@dataclass(frozen=True)
class AdditivityProbe:
    Q: ProbVector
    R: Kernel
    joint_penalty: float  # minimal penalty of the joint family at Q x R
    split_penalty: float  # outer penalty plus Q-average of kernel penalties
    relation: str  # "equal" | "joint_above" | "joint_below"


# The first classification whose admitted probe relations hold every probe's
# relation, with the sampled value gaps it bounds by ``tol``: a joint penalty
# above the split means joint values below composed ones, so no gap above.
_ADDITIVITY = (
    ("additive", {"equal"}, ("above", "below")),
    ("superadditive", {"equal", "joint_above"}, ("above",)),
    ("subadditive", {"equal", "joint_below"}, ("below",)),
    ("incomparable", {"equal", "joint_above", "joint_below"}, ()),
)


@dataclass(frozen=True)
class AdditivityReport:
    probes: tuple[AdditivityProbe, ...]
    classification: str  # "additive" | "superadditive" | "subadditive" | "incomparable"
    value_gap_above: float  # max over sampled payoffs of joint value - composed value
    value_gap_below: float  # max over sampled payoffs of composed value - joint value
    consistent: bool


def check_penalty_additivity(
    A: PenaltyAtoms,
    AU: PenaltyAtoms,
    K: PenaltyKernel,
    probes: Optional[Sequence[tuple[ProbVector, Kernel]]] = None,
    n_random: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> AdditivityReport:
    """Compare the joint minimal penalty against its additive split on probes.

    Each probe is a pair (first marginal, kernel); the additive side charges
    the outer penalty of the marginal plus the marginal-weighted kernel
    penalties, skipping zero-mass rows.  A joint penalty at least as large
    on every probe is evidence that the joint evaluation never exceeds the
    composed one; the reverse inequality is evidence for the reverse bound;
    equality on all probes is evidence for the two-sided identity.  Only
    this holds: a relation other than ``equal`` is a real difference of the
    two penalties at that probe.  A classification covers only the probes
    tried, so ``additive`` (even with ``consistent`` true) can be wrong off
    them; a direct value comparison on sampled payoffs complements it.  The
    distinct programs of each family are solved as one lockstep simplex stack,
    so every penalty is bit for bit ``minimal_penalty``'s.
    """
    space = _product_space(A.space, "check_penalty_additivity needs a joint penalty family")
    _check_same_space(AU.space, space.u_space, "penalty additivity")
    _check_same_space(K.u_space, space.u_space, "penalty additivity")
    _check_same_space(K.v_space, space.v_space, "penalty additivity")

    if n_random < 0:
        raise ValidationError(f"random probe count must be nonnegative, got {n_random}")
    # a probe (given, atom grid or random) costs the (rows + 1) x atoms cells of its programs
    cells = ((space.size + 1) * A.n_atoms + (space.u_space.size + 1) * AU.n_atoms
             + sum((space.v_space.size + 1) * P.n_atoms for P in K.table))
    grid = len(probes) if probes is not None else AU.n_atoms * math.prod(P.n_atoms for P in K.table)
    if (grid + n_random) * cells > MAX_GENERATORS:
        raise SizeGuardError(f"additivity probes exceed {MAX_GENERATORS} program cells")
    if probes is None:
        probes = _default_probes(AU, K, n_random, seed)

    # per probe: the joint program, the outer one, then one per outcome the marginal charges
    programs = [[(A, product(Q, R), 1.0), (AU, Q, 1.0)]
                + [(K[iu], R[iu], w) for iu, w in enumerate(Q.weights.tolist()) if not w <= 0.0]
                for Q, R in probes]
    families: dict = {}  # family -> {point bytes: point}: each distinct program, first seen first
    for F, P, _ in itertools.chain.from_iterable(programs):
        _check_same_space(F.space, P.space, "minimal penalty")
        families.setdefault(F, {}).setdefault(P.weights.tobytes(), P.weights)
    memo = {}  # the atom grid repeats programs; each family's are solved in one lockstep run
    for F, points in families.items():
        values = _penalties(F, np.array([*points.values()]), tol)
        memo.update(zip(((F, key) for key in points), values))

    results = []
    for (Q, R), terms in zip(probes, programs):
        values = [memo[F, P.weights.tobytes()] for F, P, _ in terms]
        for v in values:  # a stalled program fails the check, the first one met as the probes go
            if isinstance(v, SimplexStalledError):
                raise v
        joint, split = values[:2]
        for (_, _, w), v in zip(terms[2:], values[2:]):
            split = split + w * v  # inf propagates
        if joint == split or abs(joint - split) <= tol:
            relation = "equal"
        elif joint > split:
            relation = "joint_above"
        else:
            relation = "joint_below"
        results.append(AdditivityProbe(Q, R, joint, split, relation))

    relations = {p.relation for p in results}
    classification, _, bounded = next(row for row in _ADDITIVITY if relations <= row[1])

    rng = np.random.default_rng(seed)
    above = below = 0.0
    for _ in range(max(n_random, 20)):
        x = RandomVariable(space, rng.uniform(-2.0, 2.0, space.size))
        joint_val = convex_expectation(A, x)
        composed_val = compose(AU, K, x)
        above = max(above, joint_val - composed_val)
        below = max(below, composed_val - joint_val)
    gaps = {"above": above, "below": below}
    consistent = all(gaps[side] <= tol for side in bounded)
    return AdditivityReport(tuple(results), classification, above, below, consistent)


def _default_probes(AU: PenaltyAtoms, K: PenaltyKernel, n_random: int, seed: int):
    outer = [ProbVector(AU.space, q) for q in AU.points]
    atoms = [[ProbVector(K.v_space, p) for p in A.points] for A in K.table]
    probes = []
    for qi, *choice in _selections(AU.n_atoms, [A.n_atoms for A in K.table]):
        table = [atoms[iu][c] for iu, c in enumerate(choice)]
        probes.append((outer[qi], Kernel(K.u_space, table)))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        mix = rng.dirichlet(np.ones(AU.n_atoms))
        Q = ProbVector(AU.space, mix @ AU.points)
        table = []
        for iu in range(K.u_space.size):
            mix_v = rng.dirichlet(np.ones(K[iu].n_atoms))
            table.append(ProbVector(K.v_space, mix_v @ K[iu].points))
        probes.append((Q, Kernel(K.u_space, table)))
    return probes
