import itertools
import random

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
    RingTowerElement,
    _rewrite_rule,
    base_change,
    coefficient_ring,
    graded_ring,
    is_prime,
    make_patch_ring,
)
from util import SMALL_PATCH_SPECS, monomial_basis, reference_rewrite_rule, reference_ring_map

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
        # T -> T onto level 1 respects sums and products, which is what
        # (1+T)^(p^1) - 1 dividing (1+T)^(p^2) - 1 guarantees
        src = make_patch_ring(2, 1, 2, 1)
        tgt = make_patch_ring(2, 1, 1, 1)
        assert base_change(var(src), tgt) == var(tgt)
        elements = list(all_elements(src))
        for x, y in itertools.product(elements, repeat=2):
            fx, fy = base_change(x, tgt), base_change(y, tgt)
            assert base_change(x * y, tgt) == fx * fy
            assert base_change(x + y, tgt) == fx + fy

    def test_identity_reduction(self):
        for spec in SMALL_PATCH_SPECS:
            for x in all_elements(spec):
                assert base_change(x, spec) == x

    def test_precision_reduction_is_coefficientwise(self):
        src = make_patch_ring(2, 2, 1, 1)
        tgt = make_patch_ring(2, 1, 1, 1)
        x = RingTowerElement(src, {(0,): 3, (1,): 2})
        assert base_change(x, tgt) == RingTowerElement(tgt, {(0,): 1})

    def test_rejects_wrong_direction(self):
        # one case per refused direction: another prime, a higher
        # precision, a higher level, a variable count neither 0 nor q
        refused = [
            (make_patch_ring(3, 1, 1, 1), make_patch_ring(2, 1, 1, 1)),
            (make_patch_ring(2, 1, 1, 1), make_patch_ring(2, 2, 1, 1)),
            (make_patch_ring(3, 1, 1, 1), make_patch_ring(3, 1, 2, 1)),
            (make_patch_ring(2, 1, 1, 2), make_patch_ring(2, 1, 1, 1)),
            (make_patch_ring(2, 1, 1, 2), graded_ring(2, 1)),
            (graded_ring(3, 1), make_patch_ring(3, 1, 1, 1)),
        ]
        for src, tgt in refused:
            with pytest.raises(NotAReduction):
                base_change(RingTowerElement.one(src), tgt)

    def test_map_composition_on_generators(self):
        # base change is transitive: a -> c equals a -> b -> c
        chain = [
            make_patch_ring(3, 2, 3, 1),
            make_patch_ring(3, 2, 2, 1),
            make_patch_ring(3, 1, 1, 1),
            coefficient_ring(3, 1),
        ]
        a = chain[0]
        rng = random.Random(5)
        basis = monomial_basis(a)
        elements = [var(a), const(a, 5), var(a) ** 4 + const(a, 2)] + [
            RingTowerElement(a, {e: rng.randrange(a.modulus) for e in rng.sample(basis, 6)})
            for _ in range(20)
        ]
        for i, j, k in itertools.combinations(range(len(chain)), 3):
            for x in elements:
                x = base_change(x, chain[i])
                assert base_change(base_change(x, chain[j]), chain[k]) == base_change(x, chain[k])

    def test_residue_map_kills_variables(self):
        f3 = coefficient_ring(2, 1)
        assert base_change(var(Z4T), f3).is_zero()
        assert base_change(const(Z4T, 3), f3) == RingTowerElement.constant(f3, 1)


def _base_change_cases(spec):
    """(spec, target, reference) for each base change of a patch ring:
    one level lower, one precision lower, both, the coefficient ring and
    the residue field against the general ring map, and the graded model
    against the coefficients read mod p, as ``patcher.certify`` built its
    fiber before base change served it."""
    p, m, n, q = spec.p, spec.m, spec.n, spec.q
    lower = [("coefficient", coefficient_ring(p, m))]
    if m > 1:
        lower.append(("residue", coefficient_ring(p, 1)))
    if n > 1:
        lower.append(("level", make_patch_ring(p, m, n - 1, q)))
    if m > 1:
        lower.append(("precision", make_patch_ring(p, m - 1, n, q)))
    if n > 1 and m > 1:
        lower.append(("both", make_patch_ring(p, m - 1, n - 1, q)))
    cases = []
    for name, tgt in lower:
        images = [var(tgt, i) for i in range(q)] if tgt.q else [RingTowerElement.zero(tgt)] * q
        cases.append((name, tgt, lambda x, tgt=tgt, images=images: reference_ring_map(x, tgt, images)))
    graded = graded_ring(p, q)
    cases.append(("graded", graded, lambda x: RingTowerElement(graded, {e: c % p for e, c in x.coeffs.items()})))
    return [pytest.param(spec, tgt, want, id=f"{p},{m},{n},{q}-{name}") for name, tgt, want in cases]


@pytest.mark.parametrize(
    "spec, target, want",
    [case for spec in [*SMALL_PATCH_SPECS, make_patch_ring(2, 2, 2, 1)] for case in _base_change_cases(spec)],
)
def test_base_change_matches_the_reference_on_every_element(spec, target, want):
    for x in all_elements(spec):
        assert base_change(x, target) == want(x)


def test_rewrite_rule_matches_every_binomial():
    # the Kummer step visits only the multiples of p^max(n-m+1, 0); the
    # reference reads C(p^n, k) mod p^m for every 0 < k < p^n.  The grid
    # holds every p^n <= 5000, n = 0 included, on both sides of n = m.
    grid = [(p, m, n) for p in (2, 3, 5, 7) for n in range(13) if p**n <= 5000 for m in range(1, 6)]
    assert {n < m for p, m, n in grid} == {True, False} and (2, 1, 12) in grid
    for p, m, n in grid:
        assert _rewrite_rule(p, m, n) == reference_rewrite_rule(p, m, n), (p, m, n)


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
