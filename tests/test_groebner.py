import random
import time
from math import comb
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower import groebner as gb

import util


def poly(q, terms):
    return {(0, tuple(e)): c for e, c in terms.items() if c}


class TestBuchberger:
    def test_principal_monomial(self):
        out = gb.buchberger([poly(2, {(1, 0): 1})], 3)
        assert out == [{(0, (1, 0)): 1}]

    def test_lex_pair(self):
        f1 = poly(2, {(1, 0): 1, (0, 1): 2})  # T1 - T2
        f2 = poly(2, {(0, 2): 1})
        out = gb.buchberger([f1, f2], 3, gb.ModuleOrder(gb.lex_key))
        assert out == [f1, f2]

    def test_monomial_ideal_is_autoreduced(self):
        f1 = poly(2, {(1, 1): 1})
        f2 = poly(2, {(2, 0): 1})
        out = gb.buchberger([f1, f2], 3)
        assert sorted(map(sorted, out)) == sorted(map(sorted, [f1, f2]))

    def test_same_ideal_same_basis(self):
        rng = random.Random(9)
        ideal = [poly(2, {(2, 0): 1, (0, 1): 1}), poly(2, {(1, 1): 2, (0, 0): 0, (0, 2): 1})]
        # g_i + e_(2+i) over five positions, in the block order that
        # syzygy_generators uses for t = 2
        gens = [
            {(0, (1, 0)): 1, (1, (0, 1)): 2},
            {(0, (0, 2)): 1, (1, (1, 0)): 4, (1, (0, 0)): 3},
            {(1, (2, 0)): 1, (0, (1, 1)): 1},
        ]
        module = [g | {(2 + i, (0, 0)): 1} for i, g in enumerate(gens)]
        for base, p, order in [(ideal, 3, None), (module, 5, gb.ModuleOrder(gb.grevlex_key, cut=2))]:
            ref = gb.buchberger(base, p, order)
            for _ in range(5):
                mixed = [dict(g) for g in base]
                # add random multiples of one generator to the other
                f = {}
                shift = (rng.randrange(2), rng.randrange(2))
                for (pos, e), c in base[0].items():
                    f[(pos, tuple(a + b for a, b in zip(e, shift)))] = c
                g2 = dict(mixed[1])
                for t, c in f.items():
                    g2[t] = (g2.get(t, 0) + c) % p
                mixed[1] = {t: c for t, c in g2.items() if c}
                rng.shuffle(mixed)
                assert gb.buchberger(mixed, p, order) == ref


class TestSyzygies:
    def test_koszul_syzygy(self):
        g1 = poly(2, {(2, 0): 1})
        g2 = poly(2, {(1, 1): 1})
        syz = gb.syzygy_generators([g1, g2], 1, 3, 2)
        assert syz == [{(1, (1, 0)): 1, (0, (0, 1)): 2}]

    def test_syzygies_annihilate(self):
        rng = random.Random(3)
        for _ in range(10):
            vecs = []
            for _ in range(rng.randrange(1, 4)):
                v = {}
                for pos in range(2):
                    for _ in range(rng.randrange(0, 3)):
                        e = (rng.randrange(3), rng.randrange(3))
                        c = rng.randrange(1, 3)
                        v[(pos, e)] = (v.get((pos, e), 0) + c) % 3
                v = {t: c for t, c in v.items() if c}
                if v:
                    vecs.append(v)
            if not vecs:
                continue
            for s in gb.syzygy_generators(vecs, 2, 3, 2):
                acc = {}
                for idx, vec in enumerate(vecs):
                    coeff = {e: c for (pos, e), c in s.items() if pos == idx}
                    for ec, cc in coeff.items():
                        for (pos, e), c in vec.items():
                            t = (pos, tuple(a + b for a, b in zip(e, ec)))
                            acc[t] = (acc.get(t, 0) + cc * c) % 3
                assert all(v % 3 == 0 for v in acc.values())


class TestIdealOperations:
    def test_quotient_and_saturation(self):
        t1t2 = [poly(2, {(1, 1): 1})]
        t1 = [poly(2, {(1, 0): 1})]
        assert gb.ideal_quotient(t1t2, t1, 3, 2) == [{(0, (0, 1)): 1}]
        assert gb.saturate(t1t2, t1, 3, 2) == [{(0, (0, 1)): 1}]

    def test_annihilator_of_quotient(self):
        ann = gb.annihilator([poly(2, {(1, 0): 1})], 1, 3, 2)
        assert ann == [{(0, (1, 0)): 1}]

    def test_radical_membership(self):
        sq = [poly(2, {(2, 0): 1})]
        assert gb.radical_member(poly(2, {(1, 0): 1}), sq, 3, 2)
        assert not gb.radical_member(poly(2, {(0, 1): 1}), sq, 3, 2)

    def test_dimensions(self):
        assert gb.ideal_dimension([poly(2, {(1, 0): 1})], 2) == 1
        assert gb.ideal_dimension([poly(2, {(1, 0): 1}), poly(2, {(0, 1): 1})], 2) == 0
        assert gb.ideal_dimension([], 2) == 2
        assert gb.ideal_dimension([poly(2, {(0, 0): 1})], 2) == -1

    def test_module_zero(self):
        assert gb.module_is_zero([poly(2, {(0, 0): 1})], 1, 3, 2)
        assert not gb.module_is_zero([poly(2, {(1, 0): 1})], 1, 3, 2)
        assert gb.module_is_zero([], 0, 3, 2)
        e0t1_e1 = {(0, (1, 0)): 1, (1, (0, 0)): 1}  # e_0 T1 + e_1
        cases = [
            # zero only through e_0 T1 + e_1: e_1 is no column's lead
            ([e0t1_e1, {(0, (0, 0)): 1}], 2, True),
            # e_1 = -T1 e_0, so e_0 survives
            ([e0t1_e1], 2, False),
            # e_1 + e_2 and e_2 give e_1; e_0 survives modulo T2 e_0
            ([{(1, (0, 0)): 1, (2, (0, 0)): 1}, {(2, (0, 0)): 2}, {(0, (0, 1)): 1}], 3, False),
            ([{(0, (0, 0)): 1, (1, (0, 1)): 1}, {(1, (0, 0)): 2, (2, (1, 0)): 1}, {(2, (0, 0)): 1}], 3, True),
        ]
        for cols, t, want in cases:
            assert gb.module_is_zero(cols, t, 3, 2) == util.reference_module_is_zero(cols, t, 3, 2) == want
        rng = random.Random(1303)
        seen = set()
        for _ in range(300):
            p, q, t = rng.choice((2, 3, 5, 7)), rng.randint(1, 3), rng.randint(1, 4)
            cols = []
            for _ in range(rng.randint(0, t + 2)):
                col = {}
                for _ in range(rng.randint(1, 3)):
                    # constants half the time, so that zero modules occur
                    e = [0] * q
                    if rng.random() < 0.5:
                        e[rng.randrange(q)] += rng.randint(1, 2)
                    col[(rng.randrange(t), tuple(e))] = rng.randrange(1, p)
                cols.append(col)
            got = gb.module_is_zero(cols, t, p, q)
            assert got == util.reference_module_is_zero(cols, t, p, q)
            seen.add((got, t > 1))
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    def test_dimensions_match_the_subset_search(self):
        rng = random.Random(2401)
        cases = [([], 0), ([], 3), ([(0, 0, 0)], 3), ([(0, 2), (1, 0), (0, 0)], 2), ([()], 0)]
        for _ in range(2000):
            q = rng.randint(1, 5)
            leads = []
            for _ in range(rng.randint(0, 8)):
                # zero entries half the time, so that supports vary
                leads.append(tuple(rng.randint(1, 3) if rng.random() < 0.5 else 0 for _ in range(q)))
            cases.append((leads, q))
        seen = set()
        for leads, q in cases:
            got = gb.ideal_dimension([{(0, e): 1} for e in leads], q)
            assert got == util.reference_monomial_dimension(leads, q)
            seen.add(got)
        assert seen == {-1, 0, 1, 2, 3, 4, 5}

    def test_standard_counts(self):
        basis = gb.buchberger([poly(2, {(1, 0): 1})], 3)
        assert gb.standard_monomial_counts(basis, [0], 2, 3) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_standard_counts_below_every_monomial_of_one_degree(self):
        # the 1,326 monomials of degree 50 in 3 variables: below 50 every
        # monomial is standard, from 50 on none is; the numerator nests
        # one call per colon, where one call per lead would pass Python's
        # 1,000-frame limit
        d, q = 50, 3
        leads = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        assert len(leads) == comb(d + q - 1, q - 1) == 1326
        start = time.perf_counter()
        got = gb.standard_monomial_counts([{(0, e): 1} for e in leads], [0], q, d + 10)
        elapsed = time.perf_counter() - start
        assert got == {k: comb(k + q - 1, q - 1) for k in range(d)}
        assert elapsed < 20

    def test_determinant(self):
        t1 = poly(2, {(1, 0): 1})
        t2 = poly(2, {(0, 1): 1})
        det = gb.poly_determinant([[t1, t2], [t2, t1]], 3, 2)
        assert det == {(0, (2, 0)): 1, (0, (0, 2)): 2}


def random_module_input(rng: random.Random):
    """Up to three vectors in R^t over F_p[T_1..T_q], terms of degree <= 3."""
    p, q, t = rng.choice((2, 3, 5, 7)), rng.randint(1, 3), rng.randint(1, 3)
    vecs = []
    for _ in range(rng.randint(1, 3)):
        v = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * q
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(q)] += 1
            v[(rng.randrange(t), tuple(e))] = rng.randrange(1, p)
        vecs.append(v)
    return p, q, t, vecs


def module_orders(rng: random.Random, t: int):
    return [
        gb.ModuleOrder(),
        gb.ModuleOrder(gb.lex_key),
        gb.ModuleOrder(rng.choice((gb.grevlex_key, gb.lex_key)), cut=rng.randint(1, t)),
    ]


def as_items(basis):
    # pins the term order inside each vector as well as the vectors
    return [list(v.items()) for v in basis]


def with_s_vectors(run):
    """What ``run()`` returns, and how many S-vectors it reduced on the way.

    Every S-vector starts as a ``vec_sub_shifted`` call on an empty vector
    (its first half), and no reduction step subtracts from an empty one,
    so counting those calls counts the S-vectors.
    """
    made = 0
    real = gb.vec_sub_shifted

    def record(target, src, c, shift, p):
        nonlocal made
        made += not target
        real(target, src, c, shift, p)

    with mock.patch.object(gb, "vec_sub_shifted", record), mock.patch.object(util, "vec_sub_shifted", record):
        out = run()
    return as_items(out), made


class TestAgainstReferenceEngine:
    """The engine returns the reference engine's bases, term for term, and
    reduces no more S-vectors: its pair criteria drop pairs on purpose."""

    def test_bases_match(self):
        rng = random.Random(1301)
        for _ in range(200):
            p, q, t, vecs = random_module_input(rng)
            for order in module_orders(rng, t):
                want, ref_made = with_s_vectors(lambda: util.reference_buchberger(vecs, p, order))
                got, made = with_s_vectors(lambda: gb.buchberger(vecs, p, order))
                assert got == want
                assert made <= ref_made

    def test_syzygies_match(self):
        rng = random.Random(1302)
        for _ in range(100):
            p, q, t, vecs = random_module_input(rng)
            with mock.patch.object(gb, "buchberger", util.reference_buchberger):
                want, ref_made = with_s_vectors(lambda: gb.syzygy_generators(vecs, t, p, q))
            got, made = with_s_vectors(lambda: gb.syzygy_generators(vecs, t, p, q))
            assert got == want
            assert made <= ref_made


# (engine monomial key, its reference copy); the lex key was always tuple(e)
MKEYS = [(gb.grevlex_key, util.reference_grevlex_key), (gb.lex_key, tuple)]


@st.composite
def order_pairs(draw, t: int):
    """A fresh engine order and its reference copy: grevlex or lex, with or without a cut."""
    mkey, ref_mkey = draw(st.sampled_from(MKEYS))
    cut = draw(st.none() | st.integers(1, t))
    return gb.ModuleOrder(mkey, cut), util.ReferenceModuleOrder(ref_mkey, cut)


@st.composite
def term_data(draw):
    """Rank t, q variables, and exponent tuples with repeats."""
    q, t = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * q), min_size=1, max_size=8))
    return q, t, exps + draw(st.lists(st.sampled_from(exps), max_size=4))


def vectors(draw, q: int, t: int, p: int):
    terms = st.tuples(st.integers(0, t - 1), st.tuples(*[st.integers(0, 4)] * q))
    return draw(st.dictionaries(terms, st.integers(1, p - 1), max_size=8))


class TestTermArithmeticAgainstVerbatimCopies:
    """Order keys, leads and exponent arithmetic equal verbatim copies of
    the engine before its key memo and ``map`` arithmetic, which
    ``reference_buchberger`` does not provide: it shares these helpers."""

    @given(term_data(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_keys_at_every_position(self, terms, data):
        q, t, exps = terms
        order, ref = data.draw(order_pairs(t))
        for e in exps:
            assert gb.grevlex_key(e) == util.reference_grevlex_key(e)
            assert order.exp_keys[e] == ref.mkey(e)
            # one exponent tuple queried at several positions, cold and warm
            for pos in range(t):
                assert order.key((pos, e)) == ref.key((pos, e))

    @given(term_data(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_two_orders_queried_in_turn(self, terms, data):
        q, t, exps = terms
        first, first_ref = data.draw(order_pairs(t))
        second, second_ref = data.draw(order_pairs(t))
        for e in exps:
            pos = data.draw(st.integers(0, t - 1))
            assert first.key((pos, e)) == first_ref.key((pos, e))
            assert second.key((pos, e)) == second_ref.key((pos, e))
            assert first.exp_keys[e] == first_ref.mkey(e)
            assert second.exp_keys[e] == second_ref.mkey(e)

    @given(term_data(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_leads_divisibility_and_shifted_subtraction(self, terms, data):
        q, t, _ = terms
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        order, ref = data.draw(order_pairs(t))
        for _ in range(3):
            vec = vectors(data.draw, q, t, p)
            if vec:
                assert gb.lead(vec, order) == util.reference_lead(vec, ref)
        a, b = vectors(data.draw, q, t, p), vectors(data.draw, q, t, p)
        for x in a:
            for y in b:
                assert gb._divides(x, y) == util.reference_divides(x, y)
        shift = data.draw(st.tuples(*[st.integers(0, 3)] * q))
        c = data.draw(st.integers(-2 * p, 2 * p))
        got, want = dict(a), dict(a)
        gb.vec_sub_shifted(got, b, c, shift, p)
        util.reference_vec_sub_shifted(want, b, c, shift, p)
        assert list(got.items()) == list(want.items())


@given(term_data(), st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_basis_matches_the_full_scan(terms, data):
    # the minimal-lead filter reads the kept leads at the lead's own
    # position only; the full scan over every kept lead keeps the same
    q, t, _ = terms
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    order, _ = data.draw(order_pairs(t))
    basis = gb._Basis(order, p)
    for _ in range(data.draw(st.integers(0, 8))):
        vec = vectors(data.draw, q, t, p)
        if vec:
            lt = gb.lead(vec, order)
            basis.add({lt: vec.pop(lt), **vec})
    items = list(basis.items)
    got, want = gb._reduce_basis(basis), util.reference_reduce_basis(basis)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert basis.items == items
