"""Groebner machinery for submodules of free modules over F_p[T_1..T_q].

Vectors are dicts mapping ``(position, exponent-tuple)`` to nonzero
residues mod p; ideals are the one-position case.  Buchberger with the
graded reverse lexicographic order by default, full reductions, and
canonical reduced bases (monic, interreduced, sorted by leading term),
so equal submodules produce identical bases.

Each reduction step takes the largest term still to reduce from a list
kept sorted by order key (a key goes in when its term enters the
vector, and a cancelled term's entry is skipped when it comes up), and
cancels it with the first basis element whose lead divides it or moves
it to the remainder.  Pairs exist only between leads at one position.
The Gebauer-Moeller criteria prune them (Gebauer and Moeller, J. Symbolic
Comput. 6, 1988): when an element is added, the chain criterion drops
pending pairs its lead makes redundant, criteria M and F drop its own
pairs whose lcm another of its pairs divides or repeats, and for ideals
only, coprime leads drop a pair.  Pairs wait in a heap keyed by sugar
(Giovini et al., ISSAC 1991), then the lcm's order key, then insertion.
Interreduction keeps the minimal leads in one basis and reduces every
tail against it: no term below a lead is a multiple of that lead, so
this is reduction against the other elements.  An order memoizes its
monomial key per exponent, so ``lead``, the sorts and the pair heap
compute each key once.

Syzygies come from the block-order elimination trick: embed each
generator g_i as g_i + e_i in a larger free module whose first block
dominates; basis elements supported on the second block generate the
syzygy module exactly.

Standard-monomial counts and Krull dimensions both read the numerator
K(t) of the Hilbert series K(t)/(1-t)^q of R/L for the monomial ideal L
of the leads (Bayer and Stillman, J. Symbolic Comput. 14, 1992), built
by a loop over the minimal leads with one recursive call per colon.
"""

from __future__ import annotations

import heapq
from bisect import insort
from itertools import accumulate, chain, count
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
        """Append ``vec``, made monic.  Its first term is its lead, as in
        every remainder of ``normal_form`` and every vector ``buchberger``
        returns."""
        lt = next(iter(vec))
        item = (lt, vec_scale(vec, pow(vec[lt], -1, self.p), self.p))
        self.by_pos.setdefault(lt[0], []).append(item)
        self.items.append(item)


def normal_form(vec: Vec, basis: _Basis) -> Vec:
    """Full reduction: every term of the remainder escapes all lead terms.

    The terms still to reduce wait in ``todo`` as ``(key, term)``, sorted,
    so each step takes the largest; a key goes in when its term enters
    ``work``, and an entry whose term has cancelled since is skipped.
    Every term a step adds is below the term it cancels, so a term once
    reduced or moved to the remainder never comes back.
    """
    key, p, by_pos = basis.order.key, basis.p, basis.by_pos
    work = dict(vec)
    todo = sorted(zip(map(key, work), work))
    rem: Vec = {}
    while todo:
        lt = todo.pop()[1]
        c = work.get(lt)
        if c is None:
            continue
        for blt, bvec in by_pos.get(lt[0], ()):
            if _divides(blt, lt):
                # work -= c * x^shift * bvec as vec_sub_shifted does, inline
                # so that each term entering work gets its key queued
                shift = tuple(map(sub, lt[1], blt[1]))
                for (pos, e), v in bvec.items():
                    t = (pos, tuple(map(add, e, shift)))
                    old = work.get(t)
                    if old is None:
                        work[t] = -c * v % p
                        insort(todo, (key(t), t))
                    elif acc := (old - c * v) % p:
                        work[t] = acc
                    else:
                        del work[t]
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def buchberger(gens, p: int, order: ModuleOrder | None = None) -> list[Vec]:
    """Reduced Groebner basis of the submodule generated by ``gens``."""
    order = order or ModuleOrder()
    basis = _Basis(order, p)
    for g in gens:
        g = normal_form(g, basis)
        if g:
            basis.add(g)
    items = basis.items
    if len(items) < 2:
        # a remainder is sorted largest term first, and no term below a
        # lead is a multiple of it, so one element is already reduced
        return [vec for _, vec in items]
    is_ideal = all(pos == 0 for _, vec in items for (pos, _) in vec)
    # an element's sugar less its lead's degree: a seed's sugar is its
    # largest degree, an S-vector's the larger of its halves' sugars
    excess = [max(sum(e) for _, e in vec) - sum(lt[1]) for lt, vec in items]

    # (sugar, lcm key, insertion counter, i, j, lcm): the counter pops
    # equal keys first in, first out; a pair is pending while in ``live``
    pairs: list = []
    live: dict[tuple[int, int], tuple[int, ...]] = {}
    counter = count()

    def update(h: int) -> None:
        """Prune the pending pairs by h's lead, then queue the pairs of h
        that the other criteria leave."""
        pos, eh = items[h][0]
        for (i, j), lcm in list(live.items()):
            (ipos, ei), ej = items[i][0], items[j][0][1]
            if (
                ipos == pos
                and all(map(le, eh, lcm))
                and tuple(map(max, ei, eh)) != lcm
                and tuple(map(max, ej, eh)) != lcm
            ):
                del live[i, j]  # chain criterion B
        new = []
        for i in range(h):
            ipos, ei = items[i][0]
            if ipos == pos:
                lcm = tuple(map(max, ei, eh))
                new.append((lcm, i, is_ideal and tuple(map(add, ei, eh)) == lcm))
        kept: list = []
        for k, pair in enumerate(new):
            # M drops a pair whose lcm another pair's lcm divides, F keeps
            # the last of equal lcms, and a coprime pair stays to prune
            # the others before it goes itself
            lcm = pair[0]
            if pair[2] or not any(all(map(le, other[0], lcm)) for other in chain(new[k + 1 :], kept)):
                kept.append(pair)
        for lcm, i, coprime in kept:
            if not coprime:
                live[i, h] = lcm
                sugar = sum(lcm) + max(excess[i], excess[h])
                heapq.heappush(pairs, (sugar, order.exp_keys[lcm], next(counter), i, h, lcm))

    for h in range(len(items)):
        update(h)

    while pairs:
        sugar, _, _, i, j, lcm = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        (lti, vi), (ltj, vj) = items[i], items[j]
        s: Vec = {}
        vec_sub_shifted(s, vi, p - 1, tuple(map(sub, lcm, lti[1])), p)
        vec_sub_shifted(s, vj, 1, tuple(map(sub, lcm, ltj[1])), p)
        s = normal_form(s, basis)
        if s:
            basis.add(s)
            excess.append(sugar - sum(items[-1][0][1]))
            update(len(items) - 1)

    return _reduce_basis(basis)


def _reduce_basis(basis: _Basis) -> list[Vec]:
    """Minimal leads, tails reduced against them, largest lead first.
    A lead is tested only against the kept leads at its own position:
    ``_divides`` is false across positions."""
    order = basis.order
    kept = _Basis(order, basis.p)
    for lt, vec in sorted(basis.items, key=lambda it: order.key(it[0])):
        if not any(_divides(klt, lt) for klt, _ in kept.by_pos.get(lt[0], ())):
            kept.add(vec)
    out = []
    for lt, vec in kept.items:
        tail = dict(vec)
        red = {lt: tail.pop(lt)}
        red.update(normal_form(tail, kept))
        out.append(red)
    return out[::-1]


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
    """Is R^t equal to the column span, i.e. the cokernel zero?

    Exactly when every constant term (i, 0), i < t, is a lead of the
    reduced basis: if e_i is in the span, some lead divides (i, 0), and
    leads are minimal.  Conversely, constants sit below every other term,
    so the element with lead (i, 0) is e_i plus constants at later
    positions; by descending induction on i, every e_i is in the span.
    """
    if t == 0:
        return True
    zero_e = (0,) * q
    # every vector buchberger returns has its lead as its first term
    leads = {next(iter(g)) for g in buchberger(rel_cols, p)}
    return all((i, zero_e) in leads for i in range(t))


def _block_colon(parts: list[Vec], cols: list[Vec], width: int, p: int, q: int) -> list[Vec]:
    """Ring elements f with f * parts[b] in span(cols) for every b, by one
    syzygy computation: block b of R^(len(parts) * width) holds parts[b]
    on the diagonal vector and a copy of every column."""

    def shifted(vec: Vec, b: int) -> Vec:
        return {(b * width + pos, e): c for (pos, e), c in vec.items()}

    diag: Vec = {}
    for b, part in enumerate(parts):
        diag.update(shifted(part, b))
    blocks = [shifted(col, b) for b in range(len(parts)) for col in cols]
    return buchberger(relations_modulo([diag], blocks, len(parts) * width, p, q), p)


def annihilator(rel_cols: list[Vec], t: int, p: int, q: int) -> list[Vec]:
    """The ideal of ring elements acting as zero on coker(rel_cols in R^t):
    f annihilates iff f * e_i falls in the relation span for every i."""
    zero_e = (0,) * q
    if t == 0:
        return [{(0, zero_e): 1}]
    return _block_colon([{(i, zero_e): 1} for i in range(t)], rel_cols, t, p, q)


def ideal_quotient(i_gens: list[Vec], j_gens: list[Vec], p: int, q: int) -> list[Vec]:
    """(I : J) = {f : f*g in I for all g in J}, via one block syzygy run."""
    j_gens = [g for g in j_gens if g]
    if not j_gens:
        return [{(0, (0,) * q): 1}]
    return _block_colon(j_gens, i_gens, 1, p, q)


def saturate(i_gens: list[Vec], j_gens: list[Vec], p: int, q: int) -> list[Vec]:
    """(I : J^infinity), iterating quotients until the basis stabilizes."""
    cur = buchberger(i_gens, p)
    while True:
        nxt = ideal_quotient(cur, j_gens, p, q)
        if nxt == cur:
            return cur
        cur = nxt


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
# Hilbert numerators of monomial data
# ---------------------------------------------------------------------------


def _hilbert_numerator(exps: list[tuple[int, ...]]) -> list[int]:
    """Coefficients of K(t), where K(t)/(1-t)^q is the Hilbert series of
    R/L for the monomial ideal L the exponents generate; [] when L = R.

    Over the minimal generators m_1..m_r sorted by degree,
    K = 1 - sum_i t^deg(m_i) K((m_1..m_(i-1)) : m_i), and the colon is
    generated by the lcm(m_j, m_i) / m_i, j < i: calls nest once per
    colon, not once per generator.
    """
    mins: list[tuple[int, ...]] = []
    for e in sorted(exps, key=sum):
        if not any(all(map(le, m, e)) for m in mins):
            mins.append(e)
    k = [1]
    for i, m in enumerate(mins):
        colon = _hilbert_numerator([tuple(map(sub, map(max, e, m), m)) for e in mins[:i]])
        k += [0] * (sum(m) + len(colon) - len(k))
        for d, c in enumerate(colon, sum(m)):
            k[d] -= c
    while k and not k[-1]:
        k.pop()
    return k


def ideal_dimension(gb: list[Vec], q: int) -> int:
    """dim R/I from ``gb``, a Groebner basis of I in the default order (as
    ``buchberger`` returns): q less the number of times (1 - t) divides
    the numerator K of R/in(I), or -1 when K = 0, that is I = R."""
    order = ModuleOrder()
    k = _hilbert_numerator([lead(g, order)[1] for g in gb])
    if not k:
        return -1
    dim = q
    while sum(k) == 0:
        k = list(accumulate(k))[:-1]  # K / (1 - t)
        dim -= 1
    return dim


def standard_monomial_counts(rel_gb: list[Vec], shifts: list[int], q: int, max_degree: int) -> dict[int, int]:
    """Count monomial-position pairs of each degree not under a lead term.

    Position j has degree ``shifts[j]``, so x^e at position j counts in
    degree ``sum(e) + shifts[j]``; degrees up to ``max_degree`` are
    counted, and are negative where shifts are.  With a degree-compatible
    order these counts are the dimensions of the degree filtration of the
    free module modulo the span.  Only nonzero counts appear, in degree
    order.

    Position j's counts are the coefficients of K(t)/(1-t)^q for the
    numerator K of its leads, truncated at ``max_degree - shifts[j]``.
    """
    order = ModuleOrder()
    leads_by_pos: dict[int, list[tuple[int, ...]]] = {}
    for g in rel_gb:
        pos, e = lead(g, order)
        leads_by_pos.setdefault(pos, []).append(e)
    counts: dict[int, int] = {}
    for pos, shift in enumerate(shifts):
        top = max_degree - shift
        if top < 0:
            continue
        series = _hilbert_numerator(leads_by_pos.get(pos, []))[: top + 1]
        series += [0] * (top + 1 - len(series))
        for _ in range(q):
            series = list(accumulate(series))  # divide by (1 - t)
        for d, n in enumerate(series, shift):
            counts[d] = counts.get(d, 0) + n
    return {d: counts[d] for d in sorted(counts) if counts[d]}


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
