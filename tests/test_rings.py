import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower.errors import (
    InvalidParameter,
    NonPrime,
    NotAReduction,
    NotAUnit,
    SpecMismatch,
)
from patchtower.rings import (
    RingMap,
    RingTowerElement,
    coefficient_ring,
    compose,
    graded_ring,
    is_prime,
    make_patch_ring,
    reduction_map,
    residue_map,
)
from util import monomial_basis

F3T = make_patch_ring(3, 1, 1, 1)
Z4T = make_patch_ring(2, 2, 1, 1)


def var(spec, i=0):
    return RingTowerElement.variable(spec, i)


def const(spec, c):
    return RingTowerElement.constant(spec, c)


class TestConstruction:
    def test_cubic_relation_mod_three(self):
        # (1+T)^3 - 1 is T^3 mod 3
        assert (var(F3T) ** 3).is_zero()
        assert monomial_basis(F3T) == [(0,), (1,), (2,)]

    def test_no_variables_degenerates_to_the_field(self):
        spec = make_patch_ring(3, 1, 1, 0)
        assert spec.kind == "coefficient"
        assert spec.modulus == 3

    def test_quadratic_relation_mod_four(self):
        # (1+T)^2 - 1 = 2T + T^2, so T^2 rewrites to 2T over Z/4
        t = var(Z4T)
        assert t * t == t.scale(2)
        assert monomial_basis(Z4T) == [(0,), (1,)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(NonPrime):
            make_patch_ring(4, 1, 1, 1)
        with pytest.raises(InvalidParameter):
            make_patch_ring(3, 0, 1, 1)
        with pytest.raises(InvalidParameter):
            make_patch_ring(3, 1, 0, 1)

    def test_patch_ring_rank(self):
        assert make_patch_ring(3, 2, 2, 1).coefficient_rank == 9
        assert make_patch_ring(2, 1, 1, 2).coefficient_rank == 4


class TestArithmetic:
    def test_invert_one_plus_t(self):
        one = RingTowerElement.one(F3T)
        t = var(F3T)
        inv = (one + t).invert()
        assert inv == RingTowerElement(F3T, {(0,): 1, (1,): 2, (2,): 1})
        assert (one + t) * inv == one

    def test_generator_is_not_a_unit(self):
        assert var(F3T).is_unit() is False
        with pytest.raises(NotAUnit):
            var(F3T).invert()

    def test_normal_form_of_the_relation(self):
        x = RingTowerElement(F3T, {(3,): 1})
        assert x.is_zero()

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            var(F3T) + var(Z4T)

    @given(st.integers(0, 26), st.integers(0, 26))
    @settings(max_examples=60, deadline=None)
    def test_normal_form_idempotent_and_mul_commutes(self, a, b):
        def decode(k):
            coeffs = {}
            for i in range(3):
                c = k % 3
                k //= 3
                if c:
                    coeffs[(i,)] = c
            return RingTowerElement(F3T, coeffs)

        x, y = decode(a), decode(b)
        assert RingTowerElement(F3T, x.coeffs) == x
        assert x * y == y * x
        assert RingTowerElement(F3T, (x * y).coeffs) == x * y

    @given(st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_invert_is_two_sided(self, k):
        coeffs = {}
        for i in range(2):
            c = k % 4
            k //= 4
            if c:
                coeffs[(i,)] = c
        x = RingTowerElement(Z4T, coeffs)
        if not x.is_unit():
            return
        inv = x.invert()
        one = RingTowerElement.one(Z4T)
        assert x * inv == one
        assert inv * x == one


def all_elements(spec):
    basis = monomial_basis(spec)
    for combo in itertools.product(range(spec.modulus), repeat=len(basis)):
        yield RingTowerElement(
            spec, {e: c for e, c in zip(basis, combo) if c}
        )


@pytest.mark.parametrize(
    "spec",
    [make_patch_ring(3, 1, 1, 1), make_patch_ring(2, 2, 1, 1), make_patch_ring(2, 1, 1, 2)],
    ids=["F3[T]/27", "Z4[T]/16", "F2[T1,T2]/16"],
)
def test_locality_dichotomy_exhaustive(spec):
    # every element is a unit or lies in (p, T_1..T_q), never both
    for x in all_elements(spec):
        in_max_ideal = x.constant_term() % spec.p == 0
        assert x.is_unit() != in_max_ideal


class TestRingMaps:
    def test_tower_reduction_passes_welldefinedness(self):
        src = make_patch_ring(3, 1, 2, 1)
        tgt = make_patch_ring(3, 1, 1, 1)
        f = reduction_map(src, tgt)
        assert f(var(src)) == var(tgt)

    def test_identity_reduction(self):
        f = reduction_map(F3T, F3T)
        x = var(F3T) + const(F3T, 2)
        assert f(x) == x

    def test_precision_reduction_is_coefficientwise(self):
        src = make_patch_ring(2, 2, 1, 1)
        tgt = make_patch_ring(2, 1, 1, 1)
        f = reduction_map(src, tgt)
        x = RingTowerElement(src, {(0,): 3, (1,): 2})
        assert f(x) == RingTowerElement(tgt, {(0,): 1})

    def test_rejects_wrong_direction(self):
        src = make_patch_ring(3, 1, 1, 1)
        tgt = make_patch_ring(3, 1, 2, 1)
        with pytest.raises(NotAReduction):
            reduction_map(src, tgt)

    def test_map_composition_on_generators(self):
        a = make_patch_ring(3, 2, 3, 1)
        b = make_patch_ring(3, 2, 2, 1)
        c = make_patch_ring(3, 1, 1, 1)
        f_ab = reduction_map(a, b)
        f_bc = reduction_map(b, c)
        f_ac = reduction_map(a, c)
        composed = compose(f_bc, f_ab)
        for gen in [var(a), const(a, 5), var(a) ** 4 + const(a, 2)]:
            assert composed(gen) == f_ac(gen)

    def test_bad_image_is_rejected(self):
        # T -> 1 violates the tower relation: (1+1)^3 != 1 mod 3
        with pytest.raises(NotAReduction):
            RingMap(F3T, F3T, (RingTowerElement.one(F3T),))

    def test_residue_map_kills_variables(self):
        f = residue_map(Z4T)
        assert f(var(Z4T)).is_zero()
        assert f(const(Z4T, 3)) == RingTowerElement.constant(f.target, 1)


def test_graded_ring_polynomials_are_untruncated():
    g = graded_ring(3, 2)
    t1 = var(g, 0)
    assert (t1 ** 5).coeffs == {(5, 0): 1}
    assert coefficient_ring(3, 1).modulus == 3


def test_is_prime_matches_sympy():
    assert [n for n in range(10**5) if is_prime(n) != sympy.isprime(n)] == []
    # a Mersenne prime, the largest prime below 2^64, a Carmichael number
    # and a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (2**61 - 1, 2**64 - 59, 561, 3215031751):
        assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", [2**64, 2**89 - 1])
def test_is_prime_refuses_past_2_64(n):
    with pytest.raises(InvalidParameter):
        is_prime(n)
