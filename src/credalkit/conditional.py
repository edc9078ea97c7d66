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
from .lp import DEFAULT_TOL
from .penalty import PenaltyAtoms, convex_expectation, minimal_penalty
from .spaces import (
    Kernel,
    OutcomeTable,
    ProbVector,
    ProductSpace,
    RandomVariable,
    Space,
    _check_same_space,
    expectation,
    product,
    slice_u,
)

# Generator enumerations (pasting, composed atoms, probe grids) refuse to
# build more than this many elements.
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
    space = X.space
    if not isinstance(space, ProductSpace):
        raise ValidationError("conditional expectation needs a payoff on a product space")
    _check_same_space(space.u_space, K.u_space, "conditional expectation")
    _check_same_space(space.v_space, K.v_space, "conditional expectation")


def _selections(n_outer: int, counts: Sequence[int]) -> list[tuple[int, tuple]]:
    """Every ``(outer index, per-outcome choice)`` pair, outer index slowest.

    ``choice[iu]`` ranges over ``range(counts[iu])``; the last outcome's
    choice varies fastest.  Refuses more than ``MAX_GENERATORS`` pairs.
    """
    if n_outer * math.prod(counts) > MAX_GENERATORS:
        raise SizeGuardError(f"generator enumeration exceeds {MAX_GENERATORS} elements")
    pools = [range(n_outer), *map(range, counts)]
    return [(s[0], s[1:]) for s in itertools.product(*pools)]


def pasting(SU: CredalSet, K: CredalKernel) -> CredalSet:
    """The rectangular product: all ``Q x R`` with ``Q`` in the outer set
    and ``R(u)`` in the kernel set at ``u``.

    Built as the canonical hull of the finite generator family
    ``{Q_i x R_s}`` over outer vertices and per-outcome vertex selections;
    the hull has the composed functional as its support function, which
    identifies it with the full rectangular product.
    """
    _check_same_space(SU.space, K.u_space, "pasting")
    generators = []
    for qi, choice in _selections(SU.n_vertices, [S.n_vertices for S in K.table]):
        q = SU.matrix[qi]
        rows = [q[iu] * K[iu].matrix[c] for iu, c in enumerate(choice)]
        generators.append(np.concatenate(rows))
    space = ProductSpace(SU.space, K.v_space)
    return CredalSet(space, [ProbVector(space, g) for g in generators])


def composed_atoms(AU: PenaltyAtoms, K: PenaltyKernel) -> PenaltyAtoms:
    """The penalty family generating the composed convex expectation.

    One atom per (outer atom, per-outcome atom selection): the product
    measure with the outer cost plus the outer-weighted selected kernel
    costs.  Its convex expectation equals ``compose(AU, K, .)`` for every
    payoff.
    """
    _check_same_space(AU.space, K.u_space, "composed atoms")
    space = ProductSpace(AU.space, K.v_space)
    atoms = []
    for qi, choice in _selections(AU.n_atoms, [A.n_atoms for A in K.table]):
        q = AU.points[qi]
        rows = [q[iu] * K[iu].points[c] for iu, c in enumerate(choice)]
        cost = float(AU.costs[qi]) + float(
            sum(q[iu] * K[iu].costs[c] for iu, c in enumerate(choice))
        )
        atoms.append((ProbVector(space, np.concatenate(rows)), cost))
    return PenaltyAtoms(space, atoms)


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
    space = S.space
    if not isinstance(space, ProductSpace):
        raise ValidationError("check_tower needs a credal set on a product space")
    marginal = marginal_set(S)
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
    equality on all probes is evidence for the two-sided identity.  The
    probe set is finite, so this check is sound but not complete; a direct
    value comparison on sampled payoffs complements it.
    """
    space = A.space
    if not isinstance(space, ProductSpace):
        raise ValidationError("check_penalty_additivity needs a joint penalty family")
    _check_same_space(AU.space, space.u_space, "penalty additivity")
    _check_same_space(K.u_space, space.u_space, "penalty additivity")
    _check_same_space(K.v_space, space.v_space, "penalty additivity")

    if probes is None:
        probes = _default_probes(AU, K, n_random, seed)

    results = []
    for Q, R in probes:
        joint = minimal_penalty(A, product(Q, R), tol)
        split = minimal_penalty(AU, Q, tol)
        for iu in range(K.u_space.size):
            w = float(Q.weights[iu])
            if w <= 0.0:
                continue
            part = minimal_penalty(K[iu], R[iu], tol)
            split = split + w * part  # inf propagates
        if joint == split or abs(joint - split) <= tol:
            relation = "equal"
        elif joint > split:
            relation = "joint_above"
        else:
            relation = "joint_below"
        results.append(AdditivityProbe(Q, R, joint, split, relation))

    relations = {p.relation for p in results}
    if relations <= {"equal"}:
        classification = "additive"
    elif relations <= {"equal", "joint_above"}:
        classification = "superadditive"
    elif relations <= {"equal", "joint_below"}:
        classification = "subadditive"
    else:
        classification = "incomparable"

    rng = np.random.default_rng(seed)
    above = below = 0.0
    for _ in range(max(n_random, 20)):
        x = RandomVariable(space, rng.uniform(-2.0, 2.0, space.size))
        joint_val = convex_expectation(A, x)
        composed_val = compose(AU, K, x)
        above = max(above, joint_val - composed_val)
        below = max(below, composed_val - joint_val)
    consistent = _consistent_with_values(classification, above, below, tol)
    return AdditivityReport(tuple(results), classification, above, below, consistent)


def _consistent_with_values(classification, above, below, tol) -> bool:
    # joint penalty above the split everywhere means joint values below composed
    if classification == "additive":
        return above <= tol and below <= tol
    if classification == "superadditive":
        return above <= tol
    if classification == "subadditive":
        return below <= tol
    return True


def _default_probes(AU: PenaltyAtoms, K: PenaltyKernel, n_random: int, seed: int):
    outer = [ProbVector(AU.space, q) for q in AU.points]
    probes = []
    for qi, choice in _selections(AU.n_atoms, [A.n_atoms for A in K.table]):
        table = [ProbVector(K.v_space, K[iu].points[c]) for iu, c in enumerate(choice)]
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
