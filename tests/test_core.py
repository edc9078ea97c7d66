import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import prob_weights

from credalkit.conditional import (
    CredalKernel,
    PenaltyKernel,
    check_penalty_additivity,
    check_tower,
    conditional_expectation,
)
from credalkit.credal import CredalSet, marginal_set
from credalkit.errors import SpaceMismatchError, ValidationError
from credalkit.fubini import interchange_gap
from credalkit.penalty import PenaltyAtoms
from credalkit.risk import LossSpec, ScenarioTree
from credalkit.spaces import (
    Kernel,
    OutcomeSpace,
    ProbVector,
    ProductSpace,
    RandomVariable,
    _prob_rows,
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
        (S, "matrix"),
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
        for bad in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValidationError, match="finite"):
                pv(AB, bad)
            with pytest.raises(ValidationError, match="finite"):
                RandomVariable(AB, bad)

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


def refusal(build) -> str:
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


class TestStackedRows:
    """``_prob_rows`` checks a stack as the one-row reference checks each row."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_rows_are_bitwise_the_one_row_result(self, n):
        rng = np.random.default_rng(n)
        W = rng.dirichlet(np.full(n, 0.3), size=40)
        W *= 1.0 + rng.uniform(-9e-10, 9e-10, (40, 1))  # masses off one, within tolerance
        W[::5, 1] += W[::5, 0]
        W[::5, 0] = -rng.uniform(0.0, 1e-12, 8)  # clamped to zero
        want = np.stack([prob_weights(n, w) for w in W])
        assert _prob_rows(n, W).tobytes() == want.tobytes()
        assert _prob_rows(n, W.reshape(5, 8, n)).tobytes() == want.tobytes()
        space = OutcomeSpace(range(n))
        assert all(ProbVector(space, w).weights.tobytes() == row.tobytes()
                   for w, row in zip(W, want))

    FAILING = {
        "nan": [np.nan, 0.5, 0.25, 0.25],
        "inf": [np.inf, 0.0, 0.0, 0.0],
        "nan-and-negative": [np.nan, -0.5, 1.0, 0.5],
        "negative": [-0.2, 1.2, 0.0, 0.0],
        "negative-and-mass": [-0.2, 0.5, 0.5, 0.5],
        "mass": [0.275, 0.275, 0.275, 0.275],
        "overflow": [1e308, 1e308, 0.0, 0.0],
    }

    @pytest.mark.parametrize("kind", FAILING)
    def test_first_failing_row_is_named(self, kind):
        good = np.random.default_rng(7).dirichlet(np.ones(4), size=6)
        for pos in (0, 3, 5):
            W = good.copy()
            W[pos] = self.FAILING[kind]
            if pos < 5:
                W[5] = self.FAILING["negative" if kind == "mass" else "mass"]
            want = refusal(lambda: prob_weights(4, W[pos]))
            assert refusal(lambda: _prob_rows(4, W)) == want
            assert refusal(lambda: _prob_rows(4, W.reshape(2, 3, 4))) == want
            assert refusal(lambda: ProbVector(OutcomeSpace("abcd"), W[pos])) == want

    def test_wrong_length_is_named(self):
        want = refusal(lambda: prob_weights(4, np.full(5, 0.2)))
        assert refusal(lambda: _prob_rows(4, np.full((3, 5), 0.2))) == want
        assert refusal(lambda: ProbVector(OutcomeSpace("abcd"), np.full(5, 0.2))) == want


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
        # one table entry per conditioning outcome, no more and no fewer
        for count in (1, 3):
            with pytest.raises(ValidationError, match=r"\(2 expected, %d given\)" % count):
                Kernel(UV.u_space, [ProbVector.uniform(UV.v_space)] * count)

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


S_AB = CredalSet.simplex(AB)
A_AB = PenaltyAtoms.from_rows(AB, [([0.5, 0.5], 0.0)])
X_AB, P_AB = rv(AB, [1, 2]), pv(AB, [0.5, 0.5])
K_AB = CredalKernel.constant(AB, S_AB)

# Each product-space guard, called with objects on the plain space AB.
GUARDS = {
    "disintegrate": (lambda: disintegrate(P_AB),
                     "disintegrate needs a probability on a product space"),
    "slice_u": (lambda: slice_u(X_AB, "a"), "slice needs a variable on a product space"),
    "swap_variable": (lambda: swap_variable(X_AB), "swap needs a variable on a product space"),
    "swap_measure": (lambda: swap_measure(P_AB), "swap needs a probability on a product space"),
    "marginal_set": (lambda: marginal_set(S_AB),
                     "marginal_set needs a credal set on a product space"),
    "conditional": (lambda: conditional_expectation(K_AB, X_AB),
                    "conditional expectation needs a payoff on a product space"),
    "check_tower": (lambda: check_tower(S_AB, K_AB),
                    "check_tower needs a credal set on a product space"),
    "check_penalty_additivity": (
        lambda: check_penalty_additivity(A_AB, A_AB, PenaltyKernel(AB, [A_AB, A_AB])),
        "check_penalty_additivity needs a joint penalty family"),
    "interchange_gap": (lambda: interchange_gap(S_AB, S_AB, X_AB),
                        "interchange_gap needs a payoff on a product space"),
}


class TestProductSpaceGuards:
    @pytest.mark.parametrize("name", sorted(GUARDS))
    def test_mismatch_is_a_validation_error(self, name):
        call, message = GUARDS[name]
        with pytest.raises(ValidationError) as info:
            call()
        assert type(info.value) is SpaceMismatchError
        assert isinstance(info.value, ValueError)
        assert str(info.value) == message
