"""Weight stability: verdicts from exact submodule sweeps and stable factor
chains."""

from __future__ import annotations

import random

import pytest

from quivermoduli import FieldNotFinite, QQ, reps, stability
from quivermoduli.errors import DimensionMismatch, NotSemistable
from quivermoduli.reps import is_isomorphic, simple_rep
from quivermoduli.stability import StabilityClass, Weight, classify_stability, stable_factors, theta_of

from oracles import base_change, direct_sum, local_top_weight, random_group_element, rep_of_matrices


def kron_point(alg, lam):
    f = alg.field
    return rep_of_matrices(alg, (1, 1), {"a1": [[f.one()]], "a2": [[lam]]})


def kron_split_pair(alg):
    """M_[1:0] + M_[0:1]: a1 and a2 act by complementary projections."""
    f = alg.field
    one, zero = f.one(), f.zero()
    return rep_of_matrices(
        alg,
        (2, 2),
        {"a1": [[one, zero], [zero, zero]], "a2": [[zero, zero], [zero, one]]},
    )


# -- weights -------------------------------------------------------------------


def test_theta_of_is_the_dot_product():
    theta = Weight((-1, 1))
    assert theta_of(theta, (1, 1)) == 0
    assert theta_of(theta, (1, 2)) == 1
    assert theta_of(theta, (3, 1)) == -2
    with pytest.raises(DimensionMismatch):
        theta_of(theta, (1, 1, 1))


def test_theta_rendering():
    assert str(Weight((-1, 1))) == "(-1, 1)"


def test_local_top_weight_vanishes_at_its_dimension():
    assert local_top_weight(1, (1, 1)).theta == (-1, 1)
    assert local_top_weight(2, (2, 1, 3)).theta == (1, -5, 1)
    for i, d in [(1, (1, 4)), (2, (3, 1, 2)), (3, (2, 2, 1))]:
        assert theta_of(local_top_weight(i, d), d) == 0


# -- classification --------------------------------------------------------------


def test_local_kronecker_points_are_stable(kronecker_f3):
    f = kronecker_f3.field
    theta = local_top_weight(1, (1, 1))
    for lam in f.elements():
        verdict = classify_stability(kron_point(kronecker_f3, lam), theta)
        assert verdict is StabilityClass.STABLE
        assert str(verdict) == "Stable"


def test_split_semisimple_is_unstable(kronecker_f3):
    M = direct_sum(simple_rep(kronecker_f3, 1), simple_rep(kronecker_f3, 2))
    assert (
        classify_stability(M, Weight((-1, 1))) is StabilityClass.UNSTABLE
    )


def test_nonzero_weight_sum_is_unstable_without_a_sweep(kronecker):
    # decided by theta(d) != 0 alone, so the rationals are fine here
    M = direct_sum(simple_rep(kronecker, 2), kron_point(kronecker, QQ.one()))
    assert classify_stability(M, Weight((-1, 1))) is StabilityClass.UNSTABLE


def test_sweep_refuses_infinite_fields(kronecker):
    with pytest.raises(FieldNotFinite):
        classify_stability(kron_point(kronecker, QQ.one()), Weight((-1, 1)))


def test_split_pair_is_semistable_not_stable(kronecker_f3):
    M = kron_split_pair(kronecker_f3)
    assert (
        classify_stability(M, Weight((-1, 1)))
        is StabilityClass.SEMISTABLE_NOT_STABLE
    )


def test_verdict_is_invariant_under_scaling_and_base_change(kronecker_f3):
    f = kronecker_f3.field
    theta = Weight((-1, 1))
    rng = random.Random(17)
    for M in (kron_point(kronecker_f3, f.of_int(2)), kron_split_pair(kronecker_f3)):
        v = classify_stability(M, theta)
        assert classify_stability(M, Weight(tuple(4 * t for t in theta.theta))) is v
        g = random_group_element(f, M.d, rng)
        assert classify_stability(base_change(M, g), theta) is v


# -- stable factors --------------------------------------------------------------


def test_stable_module_is_its_own_factor(kronecker_f3):
    f = kronecker_f3.field
    M = kron_point(kronecker_f3, f.of_int(2))
    factors = stable_factors(M, Weight((-1, 1)))
    assert len(factors) == 1
    assert is_isomorphic(factors[0], M) is True


def test_split_pair_factors_into_two_stables(kronecker_f3):
    M = kron_split_pair(kronecker_f3)
    theta = Weight((-1, 1))
    factors = stable_factors(M, theta)
    assert [g.d for g in factors] == [(1, 1), (1, 1)]
    for g in factors:
        assert classify_stability(g, theta) is StabilityClass.STABLE


def test_stable_factors_enumerates_each_lattice_once(kronecker_f3, monkeypatch):
    calls: dict[tuple[int, ...], int] = {}
    original = reps.submodule_spans

    def counted(M, *args, **kwargs):
        calls[M.d] = calls.get(M.d, 0) + 1
        return original(M, *args, **kwargs)

    monkeypatch.setattr(reps, "submodule_spans", counted)
    monkeypatch.setattr(stability, "submodule_spans", counted)
    stable_factors(kron_split_pair(kronecker_f3), Weight((-1, 1)))
    assert calls == {(2, 2): 1, (1, 1): 1}


def _same_factors(xs, ys):
    """Do the two lists of modules match one to one up to isomorphism?"""
    rest = list(ys)
    for x in xs:
        hit = next((i for i, y in enumerate(rest) if is_isomorphic(x, y) is True), None)
        if hit is None:
            return False
        rest.pop(hit)
    return not rest


def test_stable_factors_do_not_depend_on_the_order_of_a_split_sum(kronecker_f3):
    f = kronecker_f3.field
    theta = Weight((-1, 1))
    one, zero = f.one(), f.zero()
    M = kron_split_pair(kronecker_f3)
    # the same pair assembled in the opposite order
    N = rep_of_matrices(
        kronecker_f3,
        (2, 2),
        {"a1": [[zero, zero], [zero, one]], "a2": [[one, zero], [zero, zero]]},
    )
    assert _same_factors(stable_factors(M, theta), stable_factors(N, theta))
    other = direct_sum(kron_point(kronecker_f3, one), kron_point(kronecker_f3, zero))
    assert not _same_factors(stable_factors(M, theta), stable_factors(other, theta))


def test_stable_factors_are_invariant_under_base_change(kronecker_f3):
    f = kronecker_f3.field
    theta = Weight((-1, 1))
    one, zero = f.one(), f.zero()
    jordan = rep_of_matrices(kronecker_f3, (2, 2), {"a1": [[one, zero], [zero, one]], "a2": [[one, one], [zero, one]]})
    rng = random.Random(5)
    for M in (kron_point(kronecker_f3, f.of_int(2)), kron_split_pair(kronecker_f3), jordan):
        g = random_group_element(f, M.d, rng)
        assert _same_factors(stable_factors(base_change(M, g), theta), stable_factors(M, theta))


def test_unstable_module_has_no_factors(kronecker_f3):
    M = direct_sum(simple_rep(kronecker_f3, 1), simple_rep(kronecker_f3, 2))
    with pytest.raises(NotSemistable):
        stable_factors(M, Weight((-1, 1)))


def test_zero_module_has_no_stability_type(kronecker_f3):
    from quivermoduli.reps import zero_rep

    with pytest.raises(ValueError):
        classify_stability(zero_rep(kronecker_f3, (0, 0)), Weight((-1, 1)))


def test_a_non_split_extension_has_the_stable_factors_of_the_split_one(kronecker_f3):
    # the Jordan module (a1 = 1, a2 = J_2(1)) is a non-split extension of
    # kron_point(1) by itself: the same stable factors, another module
    f = kronecker_f3.field
    one, zero = f.one(), f.zero()
    J = rep_of_matrices(
        kronecker_f3,
        (2, 2),
        {"a1": [[one, zero], [zero, one]], "a2": [[one, one], [zero, one]]},
    )
    split = direct_sum(kron_point(kronecker_f3, one), kron_point(kronecker_f3, one))
    theta = Weight((-1, 1))
    factors = stable_factors(J, theta) + stable_factors(split, theta)
    assert len(factors) == 4
    assert all(is_isomorphic(g, kron_point(kronecker_f3, one)) is True for g in factors)
    assert is_isomorphic(J, split) is False
