"""Independent-oracle cross-checks.

Three outside references: sympy's Groebner implementation over prime
fields, exhaustive enumeration of module elements over four-element
rings, and span-equality fuzzing for Howell forms over Z/8.
"""

import itertools
import random

import numpy as np
import pytest

from patchtower.complexes import cohomology
from patchtower.groebner import ModuleOrder, buchberger, grevlex_key, lex_key
from patchtower.rings import RingTowerElement, make_patch_ring
from util import howell_core, monomial_basis, random_patch_complex


def test_groebner_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("t1 t2 t3")

    def to_sympy(vec):
        expr = 0
        for (_, e), c in vec.items():
            term = sympy.Integer(c)
            for i, k in enumerate(e):
                term *= syms[i] ** k
            expr += term
        return expr

    def from_sympy(poly, q, p):
        out = {}
        for exps, c in poly.as_poly(*syms[:q]).as_dict().items():
            c = int(c) % p
            if c:
                out[(0, tuple(int(x) for x in exps))] = c
        return out

    rng = random.Random(99)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        q = rng.choice([2, 3])
        gens = []
        for _ in range(rng.randrange(1, 4)):
            vec = {}
            for _ in range(rng.randrange(1, 4)):
                key = (0, tuple(rng.randrange(0, 3) for _ in range(q)))
                vec[key] = (vec.get(key, 0) + rng.randrange(1, p)) % p
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                gens.append(vec)
        if not gens:
            continue
        for skey, sorder in ((grevlex_key, "grevlex"), (lex_key, "lex")):
            mine = sorted(map(sorted, buchberger([dict(g) for g in gens], p, ModuleOrder(skey))))
            theirs = sympy.groebner(
                [to_sympy(g) for g in gens], *syms[:q], order=sorder, modulus=p
            )
            assert mine == sorted(map(sorted, (from_sympy(t, q, p) for t in theirs.exprs)))


def _all_vectors(spec, r):
    basis = monomial_basis(spec)
    elems = [
        RingTowerElement(spec, {e: c for e, c in zip(basis, combo) if c})
        for combo in itertools.product(range(spec.modulus), repeat=len(basis))
    ]
    yield from itertools.product(elems, repeat=r)


def _apply(mat, vec):
    out = []
    for i in range(mat.rows):
        acc = RingTowerElement.zero(mat.spec)
        for j in range(mat.cols):
            acc = acc + mat.entries[i][j] * vec[j]
        out.append(acc)
    return tuple(out)


def _brute_cardinality(c, deg):
    r = c.rank(deg)
    d_out = c.differential(deg)
    d_in = c.differential(deg - 1)
    kernel = sum(
        1
        for v in _all_vectors(c.spec, r)
        if all(x.is_zero() for x in _apply(d_out, v))
    )
    if d_in.cols:
        image = len({_apply(d_in, w) for w in _all_vectors(c.spec, d_in.cols)})
    else:
        image = 1
    return kernel // image


def test_cohomology_matches_exhaustive_enumeration():
    specs = [make_patch_ring(2, 1, 1, 1), make_patch_ring(2, 2, 1, 0)]
    rng = random.Random(6)
    checked = 0
    for trial in range(20):
        spec = specs[trial % 2]
        c = random_patch_complex(rng, spec, max_rank=2, max_length=2)
        if any(rk > 2 for rk in c.ranks):
            continue
        for deg in c.degrees:
            assert cohomology(c, deg).cardinality() == _brute_cardinality(c, deg)
            checked += 1
    assert checked >= 20


def test_howell_span_fuzz_over_eight():
    rng = random.Random(12)
    for _ in range(150):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = np.array([[rng.randrange(8) for _ in range(cols)] for _ in range(rows)])
        b = [r[:] for r in a.tolist()]
        for _ in range(8):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i == j:
                u = rng.choice([1, 3, 5, 7])
                b[i] = [(u * x) % 8 for x in b[i]]
            else:
                t = rng.randrange(8)
                b[i] = [(x + t * y) % 8 for x, y in zip(b[i], b[j])]
        ha = howell_core(a, 2, 3).howell_rows()
        hb = howell_core(np.array(b), 2, 3).howell_rows()
        assert ha.tolist() == hb.tolist()
