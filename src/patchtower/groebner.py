"""Groebner machinery for submodules of free modules over F_p[T_1..T_q].

Vectors are dicts mapping ``(position, exponent-tuple)`` to nonzero
residues mod p; ideals are the one-position case.  Buchberger with the
graded reverse lexicographic order by default, full reductions, and
canonical reduced bases (monic, interreduced, sorted by leading term),
so equal submodules produce identical bases.

Each reduction step takes the lead term of what is left once, and
cancels it with the first basis element whose lead divides it or moves
it to the remainder.  Pairs wait in a heap keyed by the order key of
their lcm, ties broken by insertion.  Interreduction keeps the minimal
leads in one basis and reduces every tail against it: no term below a
lead is a multiple of that lead, so this is reduction against the
other elements.  An order memoizes its monomial key per exponent, so
``lead``, the sorts and the pair heap compute each key once.

Syzygies come from the block-order elimination trick: embed each
generator g_i as g_i + e_i in a larger free module whose first block
dominates; basis elements supported on the second block generate the
syzygy module exactly.
"""

from __future__ import annotations

import heapq
from itertools import combinations, count
from operator import add, le, neg, sub

Term = tuple[int, tuple[int, ...]]
Vec = dict[Term, int]


def grevlex_key(e: tuple[int, ...]):
    return (sum(e), tuple(map(neg, reversed(e))))


def lex_key(e: tuple[int, ...]):
    return tuple(e)


MONOMIAL_ORDERS = {"grevlex": grevlex_key, "lex": lex_key}


class _KeyMemo(dict):
    """Exponent tuple -> monomial key, computed on first lookup."""

    __slots__ = ("mkey",)

    def __init__(self, mkey):
        self.mkey = mkey

    def __missing__(self, e):
        return self.setdefault(e, self.mkey(e))


class ModuleOrder:
    """Term order on a free module; ``cut`` makes positions < cut dominant.
    Each order memoizes its own monomial key per exponent tuple."""

    __slots__ = ("mkey", "cut", "exp_keys")

    def __init__(self, mkey=grevlex_key, cut: int | None = None):
        self.mkey = mkey
        self.cut = cut
        self.exp_keys = _KeyMemo(mkey)

    def key(self, term: Term):
        pos, e = term
        return (1 if (self.cut is not None and pos < self.cut) else 0, self.exp_keys[e], -pos)


def lead(vec: Vec, order: ModuleOrder) -> Term:
    return max(vec, key=order.key)


def vec_scale(vec: Vec, c: int, p: int) -> Vec:
    c %= p
    if c == 1:
        return dict(vec)
    return {t: (v * c) % p for t, v in vec.items()}


def vec_sub_shifted(target: Vec, src: Vec, c: int, shift: tuple[int, ...], p: int) -> None:
    """target -= c * x^shift * src, in place."""
    for (pos, e), v in src.items():
        t = (pos, tuple(map(add, e, shift)))
        acc = (target.get(t, 0) - c * v) % p
        if acc:
            target[t] = acc
        else:
            target.pop(t, None)


def _divides(a: Term, b: Term) -> bool:
    return a[0] == b[0] and all(map(le, a[1], b[1]))


class _Basis:
    """Monic basis elements with their leads, bucketed by lead position."""

    __slots__ = ("order", "p", "items", "by_pos")

    def __init__(self, order: ModuleOrder, p: int):
        self.order = order
        self.p = p
        self.items: list[tuple[Term, Vec]] = []
        self.by_pos: dict[int, list[tuple[Term, Vec]]] = {}

    def add(self, vec: Vec) -> None:
        lt = lead(vec, self.order)
        item = (lt, vec_scale(vec, pow(vec[lt], -1, self.p), self.p))
        self.by_pos.setdefault(lt[0], []).append(item)
        self.items.append(item)


def normal_form(vec: Vec, basis: _Basis) -> Vec:
    """Full reduction: every term of the remainder escapes all lead terms."""
    work = dict(vec)
    rem: Vec = {}
    while work:
        lt = lead(work, basis.order)
        for blt, bvec in basis.by_pos.get(lt[0], ()):
            if _divides(blt, lt):
                vec_sub_shifted(work, bvec, work[lt], tuple(map(sub, lt[1], blt[1])), basis.p)
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def buchberger(gens, p: int, order: ModuleOrder | None = None) -> list[Vec]:
    """Reduced Groebner basis of the submodule generated by ``gens``."""
    order = order or ModuleOrder()
    basis = _Basis(order, p)
    seeds = [g for g in gens if g]
    # deterministic seeding: largest leads first keeps reductions short
    seeds.sort(key=lambda v: order.key(lead(v, order)), reverse=True)
    for g in seeds:
        g = normal_form(g, basis)
        if g:
            basis.add(g)
    is_ideal = all(pos == 0 for _, vec in basis.items for (pos, _) in vec)

    # (lcm key, insertion counter, i, j, lcm): the counter pops equal
    # keys first in, first out
    pairs: list = []
    counter = count()

    def push_pairs(new_idx: int) -> None:
        nlt, _ = basis.items[new_idx]
        for idx in range(new_idx):
            blt, _ = basis.items[idx]
            if blt[0] != nlt[0]:
                continue
            lcm = tuple(map(max, blt[1], nlt[1]))
            if is_ideal and tuple(map(add, blt[1], nlt[1])) == lcm:
                continue  # coprime leads, S-vector reduces to zero
            heapq.heappush(pairs, (order.exp_keys[lcm], next(counter), idx, new_idx, lcm))

    for i in range(len(basis.items)):
        push_pairs(i)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        (lti, vi), (ltj, vj) = basis.items[i], basis.items[j]
        s: Vec = {}
        vec_sub_shifted(s, vi, p - 1, tuple(map(sub, lcm, lti[1])), p)
        vec_sub_shifted(s, vj, 1, tuple(map(sub, lcm, ltj[1])), p)
        s = normal_form(s, basis)
        if s:
            basis.add(s)
            push_pairs(len(basis.items) - 1)

    return _reduce_basis(basis)


def _reduce_basis(basis: _Basis) -> list[Vec]:
    """Minimal leads, tails reduced against them, largest lead first."""
    order = basis.order
    kept = _Basis(order, basis.p)
    for lt, vec in sorted(basis.items, key=lambda it: order.key(it[0])):
        if not any(_divides(klt, lt) for klt, _ in kept.items):
            kept.add(vec)
    out = []
    for lt, vec in kept.items:
        tail = dict(vec)
        red = {lt: tail.pop(lt)}
        red.update(normal_form(tail, kept))
        out.append(red)
    return out[::-1]


def prepared_basis(gb: list[Vec], p: int) -> _Basis:
    basis = _Basis(ModuleOrder(), p)
    for g in gb:
        basis.add(g)
    return basis


# ---------------------------------------------------------------------------
# syzygies and derived module operations
# ---------------------------------------------------------------------------


def syzygy_generators(vectors: list[Vec], t: int, p: int, q: int) -> list[Vec]:
    """Generators of the relation module of ``vectors`` inside R^t."""
    zero_e = (0,) * q
    embedded = []
    for i, v in enumerate(vectors):
        h = dict(v)
        h[(t + i, zero_e)] = 1
        embedded.append(h)
    gb = buchberger(embedded, p, ModuleOrder(grevlex_key, cut=t))
    out = []
    for g in gb:
        if all(pos >= t for pos, _ in g):
            out.append({(pos - t, e): c for (pos, e), c in g.items()})
    return out


def relations_modulo(gens: list[Vec], modulus_cols: list[Vec], t: int, p: int, q: int) -> list[Vec]:
    """Coefficient vectors c with sum c_l * gens[l] inside span(modulus_cols)."""
    merged = list(gens) + list(modulus_cols)
    k = len(gens)
    syz = syzygy_generators(merged, t, p, q)
    out = []
    for s in syz:
        proj = {(pos, e): c for (pos, e), c in s.items() if pos < k}
        if proj:
            out.append(proj)
    return out


def module_is_zero(rel_cols: list[Vec], t: int, p: int, q: int) -> bool:
    """Is R^t equal to the column span, i.e. the cokernel zero?"""
    if t == 0:
        return True
    gb = buchberger(rel_cols, p)
    basis = prepared_basis(gb, p)
    zero_e = (0,) * q
    return all(not normal_form({(i, zero_e): 1}, basis) for i in range(t))


def annihilator(rel_cols: list[Vec], t: int, p: int, q: int) -> list[Vec]:
    """The ideal of ring elements acting as zero on coker(rel_cols in R^t).

    One syzygy computation: f annihilates iff f * (e_1,...,e_t), viewed
    inside the t-fold block sum, falls in the blockwise relation span.
    """
    zero_e = (0,) * q
    if t == 0:
        return [{(0, zero_e): 1}]
    diag: Vec = {(i * t + i, zero_e): 1 for i in range(t)}
    blocks = []
    for i in range(t):
        for col in rel_cols:
            blocks.append({(i * t + pos, e): c for (pos, e), c in col.items()})
    return buchberger(relations_modulo([diag], blocks, t * t, p, q), p)


def ideal_quotient(i_gens: list[Vec], j_gens: list[Vec], p: int, q: int) -> list[Vec]:
    """(I : J) = {f : f*g in I for all g in J}, via one block syzygy run."""
    j_gens = [g for g in j_gens if g]
    if not j_gens:
        return [{(0, (0,) * q): 1}]
    s = len(j_gens)
    diag: Vec = {}
    for jdx, g in enumerate(j_gens):
        for (pos, e), c in g.items():
            diag[(jdx, e)] = c
    blocks = []
    for jdx in range(s):
        for f in i_gens:
            blocks.append({(jdx, e): c for (pos, e), c in f.items()})
    return buchberger(relations_modulo([diag], blocks, s, p, q), p)


def saturate(i_gens: list[Vec], j_gens: list[Vec], p: int, q: int) -> list[Vec]:
    """(I : J^infinity), iterating quotients until the basis stabilizes."""
    cur = buchberger(i_gens, p)
    while True:
        nxt = ideal_quotient(cur, j_gens, p, q)
        if nxt == cur:
            return cur
        cur = nxt


def ideal_sum(i_gens: list[Vec], j_gens: list[Vec], p: int) -> list[Vec]:
    return buchberger(list(i_gens) + list(j_gens), p)


def poly_mul(a: Vec, b: Vec, p: int) -> Vec:
    """Product of two polynomials (position-0 vectors) mod p."""
    out: Vec = {}
    for (_, e1), c1 in a.items():
        for (_, e2), c2 in b.items():
            t = (0, tuple(x + y for x, y in zip(e1, e2)))
            out[t] = (out.get(t, 0) + c1 * c2) % p
    return {k: v for k, v in out.items() if v}


def ideal_product(i_gens: list[Vec], j_gens: list[Vec], p: int, q: int) -> list[Vec]:
    out = []
    for f in i_gens:
        for g in j_gens:
            prod = poly_mul(f, g, p)
            if prod:
                out.append(prod)
    return buchberger(out, p)


def radical_member(f: Vec, i_gens: list[Vec], p: int, q: int) -> bool:
    """f in rad(I), by the extra-variable membership trick."""
    if not f:
        return True

    def lift(vec: Vec) -> Vec:
        return {(0, e + (0,)): c for (_, e), c in vec.items()}

    gens = [lift(g) for g in i_gens]
    one_minus_yf: Vec = {(0, (0,) * (q + 1)): 1}
    for (_, e), c in f.items():
        t = (0, e + (1,))
        one_minus_yf[t] = (one_minus_yf.get(t, 0) - c) % p
    gens.append({k: v for k, v in one_minus_yf.items() if v})
    gb = buchberger(gens, p)
    return gb == [{(0, (0,) * (q + 1)): 1}]


def radical_equal(i_gens: list[Vec], j_gens: list[Vec], p: int, q: int) -> bool:
    return all(radical_member(g, i_gens, p, q) for g in j_gens) and all(
        radical_member(g, j_gens, p, q) for g in i_gens
    )


# ---------------------------------------------------------------------------
# dimension theory of monomial data
# ---------------------------------------------------------------------------


def monomial_dimension(lead_exps: list[tuple[int, ...]], q: int) -> int:
    """Krull dimension of R/L for the monomial ideal with the given generators.

    -1 when L contains a constant.  Otherwise the largest size of a
    variable subset S such that no generator is supported inside S.
    """
    if any(all(x == 0 for x in e) for e in lead_exps):
        return -1
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in lead_exps]
    for size in range(q, 0, -1):
        for subset in combinations(range(q), size):
            sset = frozenset(subset)
            if all(not sup <= sset for sup in supports):
                return size
    # no lead is constant, so the empty subset always qualifies
    return 0


def ideal_dimension(i_gens: list[Vec], p: int, q: int) -> int:
    """dim R/I via the initial ideal of a reduced basis; dim R = q for I = 0."""
    gb = buchberger(i_gens, p)
    if not gb:
        return q
    order = ModuleOrder()
    return monomial_dimension([lead(g, order)[1] for g in gb], q)


def standard_monomial_counts(rel_gb: list[Vec], shifts: list[int], q: int, max_degree: int) -> dict[int, int]:
    """Count monomial-position pairs of each degree not under a lead term.

    Position j has degree ``shifts[j]``, so x^e at position j counts in
    degree ``sum(e) + shifts[j]``; degrees up to ``max_degree`` are
    counted, and are negative where shifts are.  With a degree-compatible
    order these counts are the dimensions of the degree filtration of the
    free module modulo the span.  Only nonzero counts appear, in degree
    order.
    """
    order = ModuleOrder()
    leads_by_pos: dict[int, list[tuple[int, ...]]] = {}
    for g in rel_gb:
        pos, e = lead(g, order)
        leads_by_pos.setdefault(pos, []).append(e)

    def monomials(prefix, remaining, slots):
        # every exponent vector with total degree <= remaining, exactly once
        if slots == 0:
            yield prefix
            return
        for k in range(remaining + 1):
            yield from monomials(prefix + (k,), remaining - k, slots - 1)

    counts: dict[int, int] = {}
    for pos, shift in enumerate(shifts):
        if shift > max_degree:
            continue
        leads = leads_by_pos.get(pos, [])
        for e in monomials((), max_degree - shift, q):
            if not any(all(x >= y for x, y in zip(e, le)) for le in leads):
                d = sum(e) + shift
                counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


def poly_determinant(rows: list[list[Vec]], p: int, q: int) -> Vec:
    """Exact determinant of a square matrix of polynomials in q variables
    (Laplace, memoized)."""
    cache: dict[tuple, Vec] = {}

    def poly_addsub(a: Vec, b: Vec, sign: int) -> Vec:
        out = dict(a)
        for t, c in b.items():
            acc = (out.get(t, 0) + sign * c) % p
            if acc:
                out[t] = acc
            else:
                out.pop(t, None)
        return out

    def rec(row_start: int, cols: tuple[int, ...]) -> Vec:
        if not cols:
            return {(0, (0,) * q): 1}
        key = (row_start, cols)
        if key in cache:
            return cache[key]
        acc: Vec = {}
        for k, j in enumerate(cols):
            x = rows[row_start][j]
            if not x:
                continue
            sub = rec(row_start + 1, cols[:k] + cols[k + 1 :])
            term = poly_mul(x, sub, p)
            acc = poly_addsub(acc, term, 1 if k % 2 == 0 else -1)
        cache[key] = acc
        return acc

    return rec(0, tuple(range(len(rows))))
