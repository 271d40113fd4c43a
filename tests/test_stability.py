"""Weight stability: character values on the base-change group, verdicts
from exact submodule sweeps, stable factor chains, and S-equivalence."""

from __future__ import annotations

import random

import pytest

from quivermoduli import Field, FieldNotFinite, QQ, SingularBlock, reps, stability
from quivermoduli.errors import DimensionMismatch, NotSemistable
from quivermoduli.reps import (
    GroupElement,
    Rep,
    base_change,
    direct_sum,
    is_isomorphic,
    random_group_element,
    simple_rep,
)
from quivermoduli.stability import (
    StabilityClass,
    Weight,
    character_value,
    classify_stability,
    local_top_weight,
    s_equivalent,
    stable_factors,
    theta_of,
)


def kron_point(alg, lam):
    f = alg.field
    return Rep(alg, (1, 1), {"a1": [[f.one()]], "a2": [[lam]]})


def kron_split_pair(alg):
    """M_[1:0] + M_[0:1]: a1 and a2 act by complementary projections."""
    f = alg.field
    one, zero = f.one(), f.zero()
    return Rep(
        alg,
        (2, 2),
        {"a1": [[one, zero], [zero, zero]], "a2": [[zero, zero], [zero, one]]},
    )


# -- weights and characters ----------------------------------------------------


def test_theta_of_is_the_dot_product():
    theta = Weight((-1, 1))
    assert theta_of(theta, (1, 1)) == 0
    assert theta_of(theta, (1, 2)) == 1
    assert theta_of(theta, (3, 1)) == -2
    with pytest.raises(DimensionMismatch):
        theta_of(theta, (1, 1, 1))


def test_theta_scaling_and_rendering():
    theta = Weight((-2, 1, 1))
    assert theta.scaled(3).theta == (-6, 3, 3)
    assert str(Weight((-1, 1))) == "(-1, 1)"


def test_local_top_weight_vanishes_at_its_dimension():
    assert local_top_weight(1, (1, 1)).theta == (-1, 1)
    assert local_top_weight(2, (2, 1, 3)).theta == (1, -5, 1)
    for i, d in [(1, (1, 4)), (2, (3, 1, 2)), (3, (2, 2, 1))]:
        assert theta_of(local_top_weight(i, d), d) == 0


def test_character_of_identity_is_one():
    f = Field(5)
    g = GroupElement({1: [[f.one()]], 2: [[f.one()]]})
    assert character_value(f, Weight((3, -2)), g) == f.one()


def test_character_value_uses_determinant_powers():
    f = QQ
    g = GroupElement({1: [[f.of_int(2)]], 2: [[f.of_int(3)]]})
    assert character_value(f, Weight((-1, 1)), g) == f.parse("3/2")
    assert character_value(f, Weight((2, 0)), g) == f.of_int(4)


def test_character_value_is_multiplicative():
    f = Field(7)
    rng = random.Random(3)
    theta = Weight((2, -1))
    g = random_group_element(f, (2, 1), rng)
    h = random_group_element(f, (2, 1), rng)
    from quivermoduli.linalg import mat_mul

    gh = GroupElement({v: mat_mul(f, g.blocks[v], h.blocks[v]) for v in (1, 2)})
    assert character_value(f, theta, gh) == f.mul(
        character_value(f, theta, g), character_value(f, theta, h)
    )


def test_character_value_rejects_singular_blocks():
    f = QQ
    g = GroupElement({1: [[f.zero()]], 2: [[f.one()]]})
    with pytest.raises(SingularBlock):
        character_value(f, Weight((1, 1)), g)


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
        assert classify_stability(M, theta.scaled(4)) is v
        g = random_group_element(f, M.d, rng)
        assert classify_stability(base_change(M, g), theta) is v


# -- stable factors and S-equivalence ---------------------------------------------


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


def test_unstable_module_has_no_factors(kronecker_f3):
    M = direct_sum(simple_rep(kronecker_f3, 1), simple_rep(kronecker_f3, 2))
    with pytest.raises(NotSemistable):
        stable_factors(M, Weight((-1, 1)))


def test_s_equivalence_matches_factor_multisets(kronecker_f3):
    f = kronecker_f3.field
    theta = Weight((-1, 1))
    M = kron_split_pair(kronecker_f3)
    # the same pair assembled in the opposite order
    one, zero = f.one(), f.zero()
    N = Rep(
        kronecker_f3,
        (2, 2),
        {"a1": [[zero, zero], [zero, one]], "a2": [[one, zero], [zero, zero]]},
    )
    assert s_equivalent(M, N, theta) is True
    other = direct_sum(
        kron_point(kronecker_f3, one), kron_point(kronecker_f3, zero)
    )
    assert s_equivalent(M, other, theta) is False
    assert s_equivalent(M, kron_point(kronecker_f3, one), theta) is False


def test_zero_module_has_no_stability_type(kronecker_f3):
    from quivermoduli.reps import zero_rep

    with pytest.raises(ValueError):
        classify_stability(zero_rep(kronecker_f3, (0, 0)), Weight((-1, 1)))


def test_s_equivalent_modules_need_not_be_isomorphic(kronecker_f3):
    # the Jordan module (a1 = 1, a2 = J_2(1)) is a non-split extension of
    # kron_point(1) by itself: the same stable factors, another module
    f = kronecker_f3.field
    one, zero = f.one(), f.zero()
    J = Rep(
        kronecker_f3,
        (2, 2),
        {"a1": [[one, zero], [zero, one]], "a2": [[one, one], [zero, one]]},
    )
    split = direct_sum(kron_point(kronecker_f3, one), kron_point(kronecker_f3, one))
    theta = Weight((-1, 1))
    assert s_equivalent(J, split, theta) is True
    assert is_isomorphic(J, split) is False
