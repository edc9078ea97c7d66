import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalkit.conditional import CredalKernel, PenaltyKernel
from credalkit.credal import CredalSet
from credalkit.errors import SpaceMismatchError, ValidationError
from credalkit.penalty import PenaltyAtoms
from credalkit.risk import LossSpec, ScenarioTree
from credalkit.spaces import (
    Kernel,
    OutcomeSpace,
    ProbVector,
    ProductSpace,
    RandomVariable,
    disintegrate,
    expectation,
    product,
    slice_u,
    swap_measure,
    swap_variable,
)

AB = OutcomeSpace(["a", "b"])
UV = ProductSpace(OutcomeSpace(["0", "1"]), OutcomeSpace(["0", "1"]))


def rv(space, values):
    return RandomVariable(space, values)


def pv(space, weights):
    return ProbVector(space, weights)


class TestSpaces:
    def test_labels_distinct(self):
        with pytest.raises(ValidationError):
            OutcomeSpace(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeSpace([])

    def test_product_indexing_row_major(self):
        assert UV.size == 4
        assert UV.index(("0", "1")) == 1
        assert UV.index(("1", "0")) == 2
        assert UV.unravel(3) == (1, 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            AB.labels = ("x",)


def _value_objects():
    P = ProbVector.uniform(AB)
    S = CredalSet.singleton(P)
    A = PenaltyAtoms(AB, [(P, 0.0)])
    return [
        (AB, "labels"),
        (UV, "u_space"),
        (RandomVariable(AB, [1.0, 2.0]), "values"),
        (P, "weights"),
        (Kernel(AB, [P, P]), "table"),
        (CredalKernel.constant(AB, S), "table"),
        (PenaltyKernel(AB, [A, A]), "table"),
        (S, "vertices"),
        (A, "costs"),
        (LossSpec.avar(0.5), "slopes"),
        (ScenarioTree.uniform(AB, 1, S), "horizon"),
    ]


@pytest.mark.parametrize("obj, field", _value_objects(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_value_types_are_immutable(obj, field):
    before = getattr(obj, field)
    for name in (field, "new_attribute"):
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            setattr(obj, name, None)
    assert getattr(obj, field) is before
    assert not hasattr(obj, "__dict__")


class TestProbVector:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            pv(AB, [-0.1, 1.1])

    def test_tiny_negative_clamped(self):
        p = pv(AB, [-1e-13, 1.0])
        assert p.weights[0] == 0.0

    def test_sum_tolerance(self):
        with pytest.raises(ValidationError):
            pv(AB, [0.5, 0.52])
        p = pv(AB, [0.5, 0.5 + 5e-10])
        assert abs(p.weights.sum() - 1.0) <= 1e-12

    def test_renormalized(self):
        p = pv(AB, [0.3, 0.7])
        assert abs(float(np.sum(p.weights)) - 1.0) <= 1e-12


class TestExpectation:
    def test_dirac(self):
        assert expectation(pv(AB, [1, 0]), rv(AB, [3, -1])) == 3.0

    def test_mean(self):
        assert expectation(pv(AB, [0.5, 0.5]), rv(AB, [2, 4])) == 3.0

    def test_indicator(self):
        assert expectation(pv(AB, [0.3, 0.7]), rv(AB, [1, 0])) == pytest.approx(0.3, abs=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            expectation(pv(AB, [1, 0]), rv(OutcomeSpace(["x", "y"]), [1, 2]))

    @settings(max_examples=50, deadline=None)
    @given(
        w=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    def test_linearity(self, w, a, b):
        space = OutcomeSpace([f"o{i}" for i in range(len(w))])
        p = pv(space, np.array(w) / np.sum(w))
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, space.size)
        y = rng.uniform(-5, 5, space.size)
        lhs = expectation(p, rv(space, a * x + b * y))
        rhs = a * expectation(p, rv(space, x)) + b * expectation(p, rv(space, y))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestProductDisintegrate:
    def test_product_diagonal(self):
        q = pv(UV.u_space, [0.5, 0.5])
        r = Kernel(UV.u_space, [ProbVector.dirac(UV.v_space, "0"),
                                ProbVector.dirac(UV.v_space, "1")])
        joint = product(q, r)
        assert np.allclose(joint.weights, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_product_dirac_dirac(self):
        q = ProbVector.dirac(UV.u_space, "0")
        r = Kernel(UV.u_space, [ProbVector.dirac(UV.v_space, "1"),
                                ProbVector.dirac(UV.v_space, "0")])
        joint = product(q, r)
        assert joint.weights[UV.index(("0", "1"))] == 1.0

    def test_product_uniform_kernel(self):
        q = pv(UV.u_space, [0.3, 0.7])
        r = Kernel(UV.u_space, [ProbVector.uniform(UV.v_space)] * 2)
        joint = product(q, r)
        assert np.allclose(joint.weights, [0.15, 0.15, 0.35, 0.35], atol=1e-12)

    def test_product_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            nu, nv = rng.integers(1, 5, 2)
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])
            q = pv(us, rng.dirichlet(np.ones(nu)))
            r = Kernel(us, [pv(vs, rng.dirichlet(np.ones(nv))) for _ in range(nu)])
            joint = product(q, r)
            assert abs(float(np.sum(joint.weights)) - 1.0) <= 1e-12

    def test_disintegrate_diagonal(self):
        joint = pv(UV, [0.5, 0, 0, 0.5])
        q, r = disintegrate(joint)
        assert np.allclose(q.weights, [0.5, 0.5])
        assert r[0].weights[0] == 1.0 and r[1].weights[1] == 1.0

    def test_disintegrate_null_row_uniform(self):
        joint = pv(UV, [1.0, 0, 0, 0])
        q, r = disintegrate(joint)
        assert np.allclose(q.weights, [1.0, 0.0])
        assert np.allclose(r[0].weights, [1.0, 0.0])
        assert np.allclose(r[1].weights, [0.5, 0.5])

    def test_disintegrate_independent(self):
        joint = pv(UV, [0.15, 0.15, 0.35, 0.35])
        q, r = disintegrate(joint)
        assert np.allclose(q.weights, [0.3, 0.7], atol=1e-12)
        for iu in range(2):
            assert np.allclose(r[iu].weights, [0.5, 0.5], atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            nu, nv = rng.integers(1, 5, 2)
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])
            q = pv(us, rng.dirichlet(np.ones(nu)))
            r = Kernel(us, [pv(vs, rng.dirichlet(np.ones(nv))) for _ in range(nu)])
            joint = product(q, r)
            q2, r2 = disintegrate(joint)
            assert np.allclose(q.weights, q2.weights, atol=1e-12)
            for iu in range(nu):
                if q.weights[iu] > 0:
                    assert np.allclose(r[iu].weights, r2[iu].weights, atol=1e-12)
            joint2 = product(q2, r2)
            assert np.allclose(joint.weights, joint2.weights, atol=1e-12)


class TestSliceSwap:
    def test_slice_indicator(self):
        x = rv(UV, [1, 0, 0, 0])
        assert np.array_equal(slice_u(x, "0").values, [1, 0])
        assert np.array_equal(slice_u(x, "1").values, [0, 0])

    def test_slice_constant(self):
        x = rv(UV, [2.5] * 4)
        assert np.array_equal(slice_u(x, "1").values, [2.5, 2.5])

    def test_slice_unknown_label(self):
        with pytest.raises(ValidationError):
            slice_u(rv(UV, [0, 0, 0, 1]), "z")

    def test_swap_variable_transposes(self):
        x = rv(UV, [1, 2, 3, 4])
        xt = swap_variable(x)
        assert np.array_equal(xt.values, [1, 3, 2, 4])

    def test_swap_measure_involution(self):
        p = pv(UV, [0.1, 0.2, 0.3, 0.4])
        back = swap_measure(swap_measure(p))
        assert np.allclose(back.weights, p.weights, atol=1e-15)
