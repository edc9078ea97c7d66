"""Finite outcome spaces, probability vectors, random variables, and kernels.

Everything is immutable after construction and every operation is a pure
function, so values can be shared freely across concurrent workers.  All
iteration follows the label order fixed at construction, which keeps every
downstream report bit-reproducible.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .errors import SpaceMismatchError, ValidationError

# Weights in [-WEIGHT_CLAMP, 0) are clamped to zero; anything below is rejected.
WEIGHT_CLAMP = 1e-12
# |sum(weights) - 1| beyond this is rejected; inside it the vector is renormalized.
WEIGHT_SUM_TOL = 1e-9


class Frozen:
    """Base of the immutable value types: fields are set once, arrays read-only, by ``_freeze``."""

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class OutcomeSpace(Frozen):
    """An ordered finite set of distinct text labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(lab) for lab in labels)
        if not labels:
            raise ValidationError("an outcome space needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValidationError("outcome labels must be pairwise distinct")
        self._freeze(labels=labels, _index={lab: i for i, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown outcome label {label!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, OutcomeSpace) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(("OutcomeSpace", self.labels))

    def __repr__(self) -> str:
        return f"OutcomeSpace({list(self.labels)!r})"


class ProductSpace(Frozen):
    """The product of two spaces with row-major joint indexing.

    The joint index of the pair ``(u, v)`` is ``u * |V| + v``.
    """

    __slots__ = ("u_space", "v_space")

    def __init__(self, u_space: "Space", v_space: "Space"):
        self._freeze(u_space=u_space, v_space=v_space)

    @property
    def size(self) -> int:
        return self.u_space.size * self.v_space.size

    @property
    def labels(self) -> tuple:
        return tuple((u, v) for u in self.u_space.labels for v in self.v_space.labels)

    def ravel(self, iu: int, iv: int) -> int:
        return iu * self.v_space.size + iv

    def unravel(self, i: int) -> tuple[int, int]:
        return i // self.v_space.size, i % self.v_space.size

    def index(self, label) -> int:
        u, v = label
        return self.ravel(self.u_space.index(u), self.v_space.index(v))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductSpace)
            and self.u_space == other.u_space
            and self.v_space == other.v_space
        )

    def __hash__(self) -> int:
        return hash(("ProductSpace", self.u_space, self.v_space))

    def __repr__(self) -> str:
        return f"ProductSpace({self.u_space!r}, {self.v_space!r})"


Space = Union[OutcomeSpace, ProductSpace]


def _check_same_space(a: Space, b: Space, what: str) -> None:
    if a != b:
        raise SpaceMismatchError(f"{what}: spaces differ ({a!r} vs {b!r})")


def _product_space(space: Space, message: str) -> ProductSpace:
    """``space`` itself when it is a product space, else a mismatch error."""
    if not isinstance(space, ProductSpace):
        raise SpaceMismatchError(message)
    return space


class RandomVariable(Frozen):
    """A real payoff, one finite value per outcome."""

    __slots__ = ("space", "values")

    def __init__(self, space: Space, values: Sequence[float]):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.shape[0] != space.size:
            raise ValidationError(
                f"expected {space.size} values, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("random variable values must be finite")
        self._freeze(space=space, values=values.copy())

    def __repr__(self) -> str:
        return f"RandomVariable({self.space!r}, {self.values.tolist()!r})"


def _prob_rows(size: int, W: np.ndarray) -> np.ndarray:
    """``W``, of shape ``(..., size)``, with each row checked, clamped and renormalized as
    ``ProbVector`` documents; a refusal is the first failing row's first failing check."""
    if W.shape[-1] != size:
        raise ValidationError(f"expected {size} weights, got {W.shape[-1]}")
    rows = W.reshape(-1, size)
    clamped = np.where(rows < 0.0, 0.0, rows)
    total = clamped.sum(axis=1)
    ok = (rows.min(axis=1) >= -WEIGHT_CLAMP) & (np.abs(total - 1.0) <= WEIGHT_SUM_TOL)
    if not ok.all():
        i = np.argmin(ok)
        raise ValidationError(
            "probability weights must be finite" if not np.all(np.isfinite(rows[i])) else
            f"negative probability weight {float(rows[i].min())!r} below tolerance"
            if rows[i].min() < -WEIGHT_CLAMP else
            f"weights sum {float(total[i])!r} exceeds tolerance around 1")
    return (clamped / total[:, None]).reshape(W.shape)


def _prob_stack(size: int, rows) -> np.ndarray:
    """``rows`` checked as one stack, or row by row if that fails, so the first bad row refuses."""
    try:
        return _prob_rows(size, np.array(rows, dtype=float).reshape(len(rows), -1))
    except (TypeError, ValueError):
        return np.reshape([_prob_rows(size, np.array(r, float).ravel()) for r in rows], (-1, size))


class ProbVector(Frozen):
    """A probability mass function on a finite space.

    Construction clamps weights in ``[-1e-12, 0)`` to zero, rejects anything
    more negative, rejects a total mass farther than ``1e-9`` from one, and
    renormalizes so the weights sum to one up to machine rounding.
    """

    __slots__ = ("space", "weights")

    def __init__(self, space: Space, weights: Sequence[float]):
        w = _prob_rows(space.size, np.asarray(weights, dtype=float).reshape(-1))
        self._freeze(space=space, weights=w)

    @classmethod
    def dirac(cls, space: Space, label) -> "ProbVector":
        w = np.zeros(space.size)
        w[space.index(label)] = 1.0
        return cls(space, w)

    @classmethod
    def uniform(cls, space: Space) -> "ProbVector":
        return cls(space, np.full(space.size, 1.0 / space.size))

    def __repr__(self) -> str:
        return f"ProbVector({self.space!r}, {self.weights.tolist()!r})"


class OutcomeTable(Frozen):
    """An immutable total map from outcomes of ``u_space`` to one entry each.

    Every entry lives on the same second space, ``v_space``.  Subclasses
    name their entry kind in ``_entry`` for error messages.
    """

    __slots__ = ("u_space", "table")
    _entry = "entry"

    def __init__(self, u_space: Space, table: Sequence):
        table = tuple(table)
        if len(table) != u_space.size:
            raise ValidationError(
                f"kernel needs one {self._entry} per outcome "
                f"({u_space.size} expected, {len(table)} given)"
            )
        v_space = table[0].space
        for item in table[1:]:
            _check_same_space(item.space, v_space, f"{type(self).__name__} table")
        self._freeze(u_space=u_space, table=table)

    @property
    def v_space(self) -> Space:
        return self.table[0].space

    def __getitem__(self, iu: int):
        return self.table[iu]


class Kernel(OutcomeTable):
    """A total map from outcomes of ``u_space`` to probabilities on ``v_space``."""

    __slots__ = ()
    _entry = "probability vector"


def expectation(P: ProbVector, X: RandomVariable) -> float:
    """Linear expectation of ``X`` under ``P``."""
    _check_same_space(P.space, X.space, "expectation")
    return float(np.dot(P.weights, X.values))


def product(Q: ProbVector, R: Kernel) -> ProbVector:
    """The joint probability with first marginal ``Q`` and kernel ``R``."""
    _check_same_space(Q.space, R.u_space, "product")
    rows = np.stack([R[iu].weights for iu in range(R.u_space.size)])
    joint = (Q.weights[:, None] * rows).reshape(-1)
    return ProbVector(ProductSpace(Q.space, R.v_space), joint)


def disintegrate(P: ProbVector) -> tuple[ProbVector, Kernel]:
    """Split a joint probability into its first marginal and a kernel.

    Rows with zero marginal mass get the uniform kernel value; this keeps
    the output deterministic and symmetric on the unconstrained rows.
    """
    space = _product_space(P.space, "disintegrate needs a probability on a product space")
    nu, nv = space.u_space.size, space.v_space.size
    W = P.weights.reshape(nu, nv)
    q = W.sum(axis=1)
    rows = []
    for iu in range(nu):
        if q[iu] > 0.0:
            rows.append(ProbVector(space.v_space, W[iu] / q[iu]))
        else:
            rows.append(ProbVector.uniform(space.v_space))
    return ProbVector(space.u_space, q), Kernel(space.u_space, rows)


def slice_u(X: RandomVariable, u_label) -> RandomVariable:
    """The section ``v -> X(u, v)`` of a payoff on a product space."""
    space = _product_space(X.space, "slice needs a variable on a product space")
    iu = space.u_space.index(u_label)
    nv = space.v_space.size
    return RandomVariable(space.v_space, X.values[iu * nv : (iu + 1) * nv])


def _transpose(space: Space, values: np.ndarray, message: str):
    """``(V x U, values reindexed by (v, u))`` for a row or row stack on ``space = U x V``."""
    space = _product_space(space, message)
    nu, nv = space.u_space.size, space.v_space.size
    flipped = values.reshape(-1, nu, nv).swapaxes(1, 2).reshape(values.shape)
    return ProductSpace(space.v_space, space.u_space), flipped


def swap_variable(X: RandomVariable) -> RandomVariable:
    """Transpose a payoff on U x V into the same payoff on V x U."""
    return RandomVariable(*_transpose(X.space, X.values,
                                      "swap needs a variable on a product space"))


def swap_measure(P: ProbVector) -> ProbVector:
    """Push a joint probability on U x V forward through (u, v) -> (v, u)."""
    return ProbVector(*_transpose(P.space, P.weights,
                                  "swap needs a probability on a product space"))
