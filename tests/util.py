"""Seeded random generators shared by the unit and acceptance suites."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

from patchtower import groebner as gb
from patchtower import patcher
from patchtower.cli import cmd_gen, cmd_invariants, cmd_minimize, cmd_patch, cmd_verify_ha
from patchtower.complexes import FiniteModuleData, FreeComplex, _nakayama_choice, _zero_module, koszul_complex, make_complex
from patchtower.errors import ExpansionTooLarge, SpecMismatch
from patchtower.graded import GradedModule, _constant_at, matrix_columns, module_is_zero, presentation_data
from patchtower.groebner import ModuleOrder, Vec, _divides, lead, syzygy_generators, vec_scale, vec_sub_shifted
from patchtower.linalg import (
    MAX_EXPANDED_CELLS,
    HowellCore,
    Matrix,
    QuotientStructure,
    SmithData,
    SparseMatrix,
    _as_array,
    _dense_rows,
    _modulus,
    check_cells,
    matmul_mod,
    smith_quotient,
    smith_transforms,
)
from patchtower.rings import RingSpec, RingTowerElement, base_change, make_patch_ring
from patchtower.scenarios import PERTURBATIONS, ScenarioParams, _level_data, gen_scenario

import numpy as np


def monomial_basis(spec: RingSpec) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomial basis of a patch or coefficient
    ring, sorted lexicographically."""
    return list(itertools.product(range(spec.exponent_bound), repeat=spec.q))


def int_matrix(spec: RingSpec, rows) -> Matrix:
    """The matrix of constant ring elements with the given integer rows."""
    return Matrix(spec, [[RingTowerElement.constant(spec, int(x)) for x in row] for row in rows])


def identity_matrix(spec: RingSpec, size: int) -> Matrix:
    """The size x size identity matrix over ``spec``."""
    z, o = RingTowerElement.zero(spec), RingTowerElement.one(spec)
    return Matrix(spec, [[o if i == j else z for j in range(size)] for i in range(size)])


def sparse_dense(a: SparseMatrix) -> np.ndarray:
    """The dense int64 array of a ``SparseMatrix``."""
    out = np.zeros(a.shape, dtype=np.int64)
    for i, row in a.rows.items():
        out[i, list(row)] = list(row.values())
    return out


def sparse_cells(a: SparseMatrix) -> dict[tuple[int, int], int]:
    """The entries of a ``SparseMatrix`` by (row, column)."""
    return {(i, j): x for i, row in a.rows.items() for j, x in row.items()}


def table_dense(table) -> np.ndarray:
    """The dense rho x rho int64 array of a ``linalg._monomial_expansion``
    table, given by its columns of (row, residue) pairs."""
    out = np.zeros((len(table), len(table)), dtype=np.int64)
    for j, col in enumerate(table):
        for r, u in col:
            out[r, j] = u
    return out


def smith_u(sd: SmithData) -> np.ndarray:
    """The dense row transform U of ``sd``."""
    return _dense_rows([sd.u_row(k) for k in range(sd.rows)], sd.rows)


def smith_v(sd: SmithData) -> np.ndarray | None:
    """The dense column transform V of ``sd``, or None when it was not tracked."""
    if sd.v_by_id is None:
        return None
    return _dense_rows([sd.v_col(k) for k in range(sd.cols)], sd.cols).T


def euler_characteristic(c: FreeComplex) -> int:
    """The alternating sum of the ranks."""
    return sum((-1) ** d * c.rank(d) for d in c.degrees)


def row_dicts(a, N: int) -> list[dict[int, int]]:
    """Each row of the 2-d array ``a`` as a ``{column: residue mod N}``
    dict of its nonzero residues: the input form of ``HowellCore``, its
    ``solve`` and ``complexes._nakayama_choice``."""
    return [{j: x % N for j, x in enumerate(row) if x % N} for row in np.asarray(a, dtype=np.int64).tolist()]


def howell_core(a, p: int, m: int, carry: bool = True) -> HowellCore:
    """``HowellCore`` of the dense matrix ``a``, its entries read mod p^m."""
    a = _as_array(a)
    return HowellCore(row_dicts(a, p**m), a.shape[1], p, m, carry)


def dense_solve(core: HowellCore, b) -> np.ndarray | None:
    """``core.solve`` of a 2-d b, one right-hand side per row, or of a
    vector b, whose solution is then a vector."""
    b = np.asarray(b, dtype=np.int64)
    x = core.solve(row_dicts(np.atleast_2d(b), core.N))
    return x if x is None or b.ndim == 2 else x[0]


def dense_work(core: HowellCore) -> np.ndarray:
    """The work rows of ``core`` (Howell rows, then tail rows) as one dense
    array, the carry block from column ``core.active`` on."""
    return _dense_rows(core.rows, core.width)


def transform_rows(core: HowellCore) -> np.ndarray:
    """The transform rows T of ``core``: T A is its Howell form."""
    return dense_work(core)[: len(core.pivots), core.active :]


def howell_reduce(core: HowellCore, vec: np.ndarray) -> np.ndarray:
    """The canonical representative of ``vec`` modulo the Howell span of ``core``."""
    return dense_reduce_row(np.asarray(vec, dtype=np.int64), dense_work(core)[:, : core.active], core.pivots, core.p, core.m)


# -- the dense Howell elimination, the reference for ``linalg.HowellCore`` --


def dense_valuations(col: np.ndarray, p: int, m: int) -> np.ndarray:
    """p-adic valuation of each entry, with val(0) = m."""
    val = np.zeros(col.shape, dtype=np.int64)
    cur = col.copy()
    nonzero = col != 0
    for _ in range(m - 1):
        div = nonzero & (cur % p == 0) & (val < m)
        val += div
        cur = np.where(div, cur // p, cur)
    val[~nonzero] = m
    return val


def dense_echelon(work: np.ndarray, active: int, p: int, m: int):
    """In-place echelon over active columns; returns pivot list (row, col, val).

    Updates touch only the rows with a nonzero entry in the pivot column
    and only columns from the pivot rightward (everything to the left of
    the pivot is already zero below the previous pivot row).  Only the
    active columns with an entry at the start are visited, found in one
    scan: every update subtracts a multiple of the pivot row, so a column
    that is zero in every row stays zero.  ``linalg._echelon`` must give
    the same pivots and rows on row dicts.
    """
    N = p**m
    nrows = work.shape[0]
    pivots = []
    r = 0
    for j in np.flatnonzero(work[:, :active].any(axis=0)).tolist():
        if r >= nrows:
            break
        col = work[r:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        vals = dense_valuations(col[nz], p, m)
        k = int(np.argmin(vals))
        vmin = int(vals[k])
        i = r + int(nz[k])
        if i != r:
            work[[r, i]] = work[[i, r]]
        pv = p**vmin
        unit = int(work[r, j]) // pv
        if unit % N != 1:
            uinv = pow(unit % N, -1, N)
            work[r, j:] = (work[r, j:] * uinv) % N
        sub = work[r + 1 :, j:]
        nzb = np.nonzero(work[r + 1 :, j])[0]
        if nzb.size:
            t = work[r + 1 + nzb, j] // pv
            sub[nzb] = (sub[nzb] - t[:, None] * work[r, j:]) % N
        pivots.append((r, j, vmin))
        r += 1
    return pivots


def dense_reduce_row(vec: np.ndarray, work: np.ndarray, pivots, p: int, m: int) -> np.ndarray:
    N = p**m
    vec = vec % N
    for r, j, v in pivots:
        e = int(vec[j])
        if e == 0:
            continue
        pv = p**v
        if e % pv == 0:
            vec = (vec - (e // pv) * work[r]) % N
    return vec


class DenseHowell:
    """The dense Howell form that ``linalg.HowellCore`` replaced: one
    int64 work array, [A | I] with the carry block, and vectorised
    modular row operations.  ``HowellCore`` must give the same pivots,
    work rows, kernel rows and solutions."""

    def __init__(self, a: np.ndarray, p: int, m: int, carry: bool = True):
        self.p, self.m = p, m
        self.N = _modulus(p, m)
        a = _as_array(a)
        self.active = a.shape[1]
        self.orig_rows = a.shape[0]
        if carry:
            work = np.hstack([a % self.N, np.eye(a.shape[0], dtype=np.int64)])
        else:
            work = a % self.N
        self.work, self.pivots = self._howellize(work)

    def _howellize(self, work):
        p, m, N = self.p, self.m, self.N
        while True:
            pivots = dense_echelon(work, self.active, p, m)
            grew = False
            tails = []
            for r, j, v in pivots:
                if v == 0:
                    continue
                cand = (work[r] * (p ** (m - v))) % N
                cand = dense_reduce_row(cand, work, pivots, p, m)
                if cand[: self.active].any():
                    work = np.vstack([work, cand[None, :]])
                    grew = True
                elif cand.any():
                    tails.append(cand)
            if grew:
                continue
            npiv = len(pivots)
            old_tails = [row for row in work[npiv:] if row.any()]
            rows = [work[:npiv]]
            if old_tails:
                rows.append(np.array(old_tails))
            if tails:
                rows.append(np.array(tails))
            work = np.vstack(rows) if len(rows) > 1 else work[:npiv].copy()
            break
        for r, j, v in pivots:
            if r == 0:
                continue
            pv = p**v
            t = work[:r, j] // pv
            nza = np.nonzero(t)[0]
            if nza.size:
                sub = work[:r, j:]
                sub[nza] = (sub[nza] - t[nza, None] * work[r, j:]) % N
        return work, pivots

    def howell_rows(self) -> np.ndarray:
        return self.work[: len(self.pivots), : self.active].copy()

    def kernel_rows(self) -> np.ndarray:
        tail = self.work[len(self.pivots) :, self.active :]
        if tail.size == 0:
            return np.zeros((0, self.orig_rows), dtype=np.int64)
        return DenseHowell(tail, self.p, self.m, carry=False).howell_rows()

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        N = self.N
        rhs = np.atleast_2d(np.asarray(b, dtype=np.int64) % N)
        coef = np.zeros((rhs.shape[0], len(self.pivots)), dtype=np.int64)
        for r, j, v in self.pivots:
            rows = np.flatnonzero(rhs[:, j])
            if rows.size == 0:
                continue
            pv = self.p**v
            e = rhs[rows, j]
            if (e % pv).any():
                return None
            coef[rows, r] = e // pv
            rhs[rows] = (rhs[rows] - coef[rows, r, None] * self.work[r, : self.active]) % N
        if rhs.any():
            return None
        x = matmul_mod(coef, self.work[: len(self.pivots), self.active :], N)
        return x if np.ndim(b) == 2 else x[0]


def random_homogeneous_poly(rng: random.Random, spec: RingSpec, degree: int) -> RingTowerElement:
    """A random homogeneous polynomial of the exact degree (possibly zero)."""
    q = spec.q
    coeffs = {}
    exps = _exponents_of_degree(q, degree)
    for e in exps:
        c = rng.randrange(spec.p)
        if c:
            coeffs[e] = c
    return RingTowerElement(spec, coeffs)


def _exponents_of_degree(q: int, degree: int):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), degree, q)
    return out


def monomial_minimal_prime_heights(ring: RingSpec, monomials) -> set[int]:
    """Brute-force oracle: minimal variable covers of a monomial ideal."""
    supports = []
    for x in monomials:
        (exps,) = x.coeffs.keys()
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    if not supports:
        return set()
    if frozenset() in supports:
        return set()
    q = ring.q
    covers = []
    for size in range(q + 1):
        for subset in itertools.combinations(range(q), size):
            sset = frozenset(subset)
            if all(sup & sset for sup in supports):
                covers.append(sset)
    minimal = [c for c in covers if not any(o < c for o in covers)]
    return {len(c) for c in minimal}


def random_graded_module(rng: random.Random, spec: RingSpec, max_size: int = 3, max_degree: int = 2) -> GradedModule:
    """Random homogeneous presentation, entries in the maximal ideal."""
    rows = rng.randrange(1, max_size + 1)
    cols = rng.randrange(0, max_size + 1)
    ent = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            deg = rng.randrange(1, max_degree + 1)
            row.append(random_homogeneous_poly(rng, spec, deg))
        ent.append(row)
    rel = Matrix(spec, ent) if cols else Matrix.zero(spec, rows, 0)
    return GradedModule(spec, rows, rel)


def random_unit_presentation(rng: random.Random, spec: RingSpec, max_size: int = 4) -> GradedModule:
    """Random presentation whose entries mix zeros, nonzero scalars,
    non-scalar units such as 1+T and forms in the maximal ideal; about
    one column in five is zero."""
    p = spec.p
    gens = rng.randrange(1, max_size + 1)
    cols = rng.randrange(0, max_size + 2)
    zero = RingTowerElement.zero(spec)

    def entry():
        r = rng.random()
        if r < 0.35:
            return zero
        if r < 0.55:
            return RingTowerElement.constant(spec, rng.randrange(1, p))
        if r < 0.7:
            return RingTowerElement.constant(spec, rng.randrange(1, p)) + random_homogeneous_poly(rng, spec, 1)
        return random_homogeneous_poly(rng, spec, rng.randrange(1, 3))

    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    ent = [[zero if j in zero_cols else entry() for j in range(cols)] for _ in range(gens)]
    return GradedModule(spec, gens, Matrix(spec, ent, cols))


def reference_prune_presentation(gens: int, cols: list[Vec], p: int, q: int) -> tuple[int, list[Vec], list[int]]:
    """Cancel relation entries that are nonzero scalars.

    Each cancellation removes one generator and one relation through an
    exact change of presentation (the pivot coefficient is a unit of
    the polynomial ring itself).  Returns the surviving generator count,
    columns, and the surviving original generator indices.

    Reference: the dict-column loop ``graded.presentation_data`` ran
    before it shared ``complexes._cancel_unit_pivots`` with ``minimize``.
    """
    cols = [dict(c) for c in cols]
    alive = list(range(gens))
    while True:
        hit = None
        for j, col in enumerate(cols):
            for idx, pos in enumerate(alive):
                c0 = _constant_at(col, pos, q)
                if c0 and all(e == (0,) * q for (pp, e) in col if pp == pos):
                    hit = (j, idx, pos, c0)
                    break
            if hit:
                break
        if hit is None:
            return len(alive), [
                { (alive.index(pos), e): c for (pos, e), c in col.items() }
                for col in cols
            ], alive
        j, idx, pos, c0 = hit
        pivot_col = cols[j]
        cinv = pow(c0, -1, p)
        new_cols = []
        for l, col in enumerate(cols):
            if l == j:
                continue
            factor = {e: c for (pp, e), c in col.items() if pp == pos}
            out = dict(col)
            for t in [t for t in out if t[0] == pos]:
                del out[t]
            if factor:
                # col -= (col_pos / pivot) * pivot_col, with scalar pivot
                for (pp, e), c in pivot_col.items():
                    if pp == pos:
                        continue
                    for ef, cf in factor.items():
                        t = (pp, tuple(a + b for a, b in zip(e, ef)))
                        acc = (out.get(t, 0) - cinv * cf * c) % p
                        if acc:
                            out[t] = acc
                        else:
                            out.pop(t, None)
            if out:
                new_cols.append(out)
        cols = new_cols
        alive.remove(pos)


def _reference_koszul_block_columns(step_cols: list[Vec], gens: int):
    """Kronecker expansion of a Koszul differential against a module cover."""
    out = []
    for j, col in enumerate(step_cols):
        for l in range(gens):
            big: Vec = {}
            for (pos, e), c in col.items():
                big[(pos * gens + l, e)] = c
            out.append(big)
    return out


def _reference_basis(reduced: list[Vec], p: int) -> gb._Basis:
    """A reduced basis in the default order, ready for ``gb.normal_form``."""
    basis = gb._Basis(ModuleOrder(), p)
    for g in reduced:
        basis.add(g)
    return basis


def reference_module_is_zero(rel_cols: list[Vec], t: int, p: int, q: int) -> bool:
    """``groebner.module_is_zero`` as a normal-form test: every unit
    vector e_i reduces to zero against the reduced basis of the span."""
    if t == 0:
        return True
    basis = _reference_basis(gb.buchberger(rel_cols, p), p)
    zero_e = (0,) * q
    return all(not gb.normal_form({(i, zero_e): 1}, basis) for i in range(t))


def reference_monomial_dimension(lead_exps: list[tuple[int, ...]], q: int) -> int:
    """Krull dimension of R/L for the monomial ideal with the given generators.

    -1 when L contains a constant.  Otherwise the largest size of a
    variable subset S such that no generator is supported inside S.
    """
    if any(all(x == 0 for x in e) for e in lead_exps):
        return -1
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in lead_exps]
    for size in range(q, 0, -1):
        for subset in itertools.combinations(range(q), size):
            sset = frozenset(subset)
            if all(not sup <= sset for sup in supports):
                return size
    # no lead is constant, so the empty subset always qualifies
    return 0


def reference_module_depth(m: GradedModule) -> int | None:
    """Depth along (T_1..T_q), read from Koszul homology of the cover: for
    each i from q down, one block syzygy run and one Groebner basis over
    the Koszul cover K_i (x) R^gens.  No memo, so every call recomputes."""
    if module_is_zero(m):
        return None
    ring = m.ring
    p, q = ring.p, ring.q
    gens, rel_cols = presentation_data(m)
    # the Koszul complex on T_1..T_q; its transposed differentials are
    # the boundaries from i-subsets down to (i-1)-subsets
    kos = koszul_complex(ring, [RingTowerElement.variable(ring, k) for k in range(q)])

    def boundary(i: int) -> list[Vec]:
        return matrix_columns(kos.differential(i - 1).transpose())

    def block_rel(i: int) -> list[Vec]:
        return [
            {(b * gens + pos, e): c for (pos, e), c in col.items()}
            for b in range(kos.rank(i))
            for col in rel_cols
        ]

    for i in range(q, -1, -1):
        if i == 0:
            cycles = [{(l, (0,) * q): 1} for l in range(gens)]
        else:
            # vectors of the i-th cover whose boundary lands in the relation span
            bnd_out = _reference_koszul_block_columns(boundary(i), gens)
            cycles = gb.relations_modulo(bnd_out, block_rel(i - 1), kos.rank(i - 1) * gens, p, q)
        # boundary(q + 1) has no columns
        span = _reference_koszul_block_columns(boundary(i + 1), gens) + block_rel(i)
        basis = _reference_basis(gb.buchberger(span, p), p)
        if any(gb.normal_form(v, basis) for v in cycles):
            return q - i
    # exhaustion means the variable ideal acts invertibly; depth along it
    # is undefined, which only happens off the intended input domain
    return None


def reference_grevlex_key(e: tuple[int, ...]):
    """``groebner.grevlex_key`` before its ``map`` arithmetic, verbatim."""
    return (sum(e), tuple(-x for x in reversed(e)))


class ReferenceModuleOrder:
    """``groebner.ModuleOrder`` before its per-exponent key memo, verbatim:
    every ``key`` call computes ``mkey`` afresh."""

    __slots__ = ("mkey", "cut")

    def __init__(self, mkey=reference_grevlex_key, cut: int | None = None):
        self.mkey = mkey
        self.cut = cut

    def key(self, term):
        pos, e = term
        block = 1 if (self.cut is not None and pos < self.cut) else 0
        return (block, self.mkey(e), -pos)


def reference_lead(vec: Vec, order) -> tuple:
    return max(vec, key=order.key)


def reference_vec_sub_shifted(target: Vec, src: Vec, c: int, shift: tuple[int, ...], p: int) -> None:
    """``groebner.vec_sub_shifted`` with generator-expression exponents, verbatim."""
    for (pos, e), v in src.items():
        t = (pos, tuple(a + b for a, b in zip(e, shift)))
        acc = (target.get(t, 0) - c * v) % p
        if acc:
            target[t] = acc
        else:
            target.pop(t, None)


def reference_divides(a, b) -> bool:
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def reference_reduce_basis(basis: gb._Basis) -> list[Vec]:
    """``groebner._reduce_basis`` with the minimal-lead filter scanning
    every kept lead, at every position, as the engine did before it read
    only the kept leads at the lead's own position."""
    order = basis.order
    kept = gb._Basis(order, basis.p)
    for lt, vec in sorted(basis.items, key=lambda it: order.key(it[0])):
        if not any(_divides(klt, lt) for klt, _ in kept.items):
            kept.add(vec)
    out = []
    for lt, vec in kept.items:
        tail = dict(vec)
        red = {lt: tail.pop(lt)}
        red.update(gb.normal_form(tail, kept))
        out.append(red)
    return out[::-1]


class _ReferenceBasis:
    """Monic basis elements bucketed by lead position (reference engine)."""

    def __init__(self, order: ModuleOrder, p: int):
        self.order = order
        self.p = p
        self.items: list = []
        self.by_pos: dict[int, list[int]] = {}

    def add(self, vec: Vec) -> None:
        lt = lead(vec, self.order)
        vec = vec_scale(vec, pow(vec[lt], -1, self.p), self.p)
        self.by_pos.setdefault(lt[0], []).append(len(self.items))
        self.items.append((lt, vec))

    def reduce_lead(self, work: Vec) -> tuple[Vec, bool]:
        lt = lead(work, self.order)
        for idx in self.by_pos.get(lt[0], ()):
            blt, bvec = self.items[idx]
            if _divides(blt, lt):
                shift = tuple(x - y for x, y in zip(lt[1], blt[1]))
                vec_sub_shifted(work, bvec, work[lt], shift, self.p)
                return work, True
        return work, False


def _reference_normal_form(vec: Vec, basis: _ReferenceBasis) -> Vec:
    work = dict(vec)
    rem: Vec = {}
    while work:
        work, hit = basis.reduce_lead(work)
        if not work:
            break
        if not hit:
            lt = lead(work, basis.order)
            rem[lt] = work.pop(lt)
    return rem


def reference_buchberger(gens, p: int, order: ModuleOrder | None = None) -> list[Vec]:
    """Reduced Groebner basis by the engine ``groebner.buchberger`` replaced.

    A lead-term search in ``reduce_lead`` and a second one for each
    irreducible term, a pair list re-sorted (stably, by the lcm key)
    before every ``pop(0)``, and interreduction of each kept element
    against a fresh basis of all the others.
    """
    order = order or ModuleOrder()
    basis = _ReferenceBasis(order, p)
    seeds = [dict(g) for g in gens if g]
    seeds.sort(key=lambda v: order.key(lead(v, order)), reverse=True)
    for g in seeds:
        g = _reference_normal_form(g, basis)
        if g:
            basis.add(g)
    is_ideal = all(pos == 0 for _, vec in basis.items for (pos, _) in vec)
    pairs = []

    def push_pairs(new_idx: int) -> None:
        nlt, _ = basis.items[new_idx]
        for idx in range(new_idx):
            blt, _ = basis.items[idx]
            if blt[0] != nlt[0]:
                continue
            lcm = tuple(max(x, y) for x, y in zip(blt[1], nlt[1]))
            if is_ideal and all(x + y == z for x, y, z in zip(blt[1], nlt[1], lcm)):
                continue
            pairs.append((order.mkey(lcm), idx, new_idx, lcm))

    for i in range(len(basis.items)):
        push_pairs(i)
    while pairs:
        pairs.sort(key=lambda x: x[0])
        _, i, j, lcm = pairs.pop(0)
        (lti, vi), (ltj, vj) = basis.items[i], basis.items[j]
        s: Vec = {}
        vec_sub_shifted(s, vi, p - 1, tuple(a - b for a, b in zip(lcm, lti[1])), p)
        vec_sub_shifted(s, vj, 1, tuple(a - b for a, b in zip(lcm, ltj[1])), p)
        s = _reference_normal_form(s, basis)
        if s:
            basis.add(s)
            push_pairs(len(basis.items) - 1)

    kept = []
    for lt, vec in sorted(basis.items, key=lambda it: order.key(it[0])):
        if not any(_divides(klt, lt) for klt, _ in kept):
            kept.append((lt, vec))
    out = []
    for i, (lt, vec) in enumerate(kept):
        small = _ReferenceBasis(order, p)
        for j, (_, other) in enumerate(kept):
            if j != i:
                small.add(dict(other))
        red = _reference_normal_form(vec, small)
        if red:
            inv = pow(red[lead(red, order)], -1, p)
            out.append(vec_scale(red, inv, p))
    out.sort(key=lambda v: order.key(lead(v, order)), reverse=True)
    return out


def random_minimal_graded_complex(rng: random.Random, spec: RingSpec, max_rank: int = 3, max_length: int = 2) -> FreeComplex:
    """A valid complex with all differential entries in the maximal ideal.

    The first differential is random; each later one has rows drawn from
    the syzygies of the previous differential's rows, filtered to
    constant-term-free vectors so minimality is preserved.
    """
    p, q = spec.p, spec.q
    length = rng.randrange(0, max_length + 1)
    ranks = [rng.randrange(1, max_rank + 1) for _ in range(length + 1)]
    diffs: list[Matrix] = []
    if length >= 1:
        ent = []
        for _ in range(ranks[1]):
            row = []
            for _ in range(ranks[0]):
                if rng.random() < 0.35:
                    row.append(RingTowerElement.zero(spec))
                else:
                    deg = rng.randrange(1, 3)
                    row.append(random_homogeneous_poly(rng, spec, deg))
            ent.append(row)
        diffs.append(Matrix(spec, ent))
    for k in range(1, length):
        prev = diffs[k - 1]
        prev_rows = []
        for i in range(prev.rows):
            vec = {}
            for j in range(prev.cols):
                for e, c in prev.entries[i][j].coeffs.items():
                    vec[(j, e)] = c
            prev_rows.append(vec)
        syz = syzygy_generators(prev_rows, prev.cols, p, q)
        zero_e = (0,) * q
        syz = [s for s in syz if all(e != zero_e for (_, e) in s)]
        rows = []
        for _ in range(ranks[k + 1]):
            vec: dict = {}
            for s in syz:
                if rng.random() < 0.6:
                    c = rng.randrange(1, p)
                    for t, v in s.items():
                        vec[t] = (vec.get(t, 0) + c * v) % p
            rows.append({t: v for t, v in vec.items() if v})
        ent = []
        for vec in rows:
            row = [dict() for _ in range(prev.rows)]
            for (pos, e), c in vec.items():
                row[pos][e] = c
            ent.append([RingTowerElement(spec, d) for d in row])
        diffs.append(Matrix(spec, ent))
    return make_complex(spec, 0, ranks, diffs)


def random_graded_consistent_complex(
    rng: random.Random, spec: RingSpec, max_rank: int = 3, max_length: int = 2
) -> FreeComplex:
    """A minimal complex carrying a consistent grading.

    Generator degrees are chosen per term; every nonzero entry is
    homogeneous of the forced degree, and later differentials combine
    only syzygy generators of one degree, so twist inference always
    succeeds on the output.
    """
    p, q = spec.p, spec.q
    length = rng.randrange(0, max_length + 1)
    ranks = [rng.randrange(1, max_rank + 1) for _ in range(length + 1)]
    diffs: list[Matrix] = []
    if length >= 1:
        w0 = [rng.randrange(0, 2) for _ in range(ranks[0])]
        w1 = [max(w0) + rng.randrange(1, 3) for _ in range(ranks[1])]
        ent = []
        for k in range(ranks[1]):
            row = []
            for l in range(ranks[0]):
                deg = w1[k] - w0[l]
                if deg < 1 or rng.random() < 0.3:
                    row.append(RingTowerElement.zero(spec))
                else:
                    row.append(random_homogeneous_poly(rng, spec, deg))
            ent.append(row)
        diffs.append(Matrix(spec, ent))
    for k in range(1, length):
        prev = diffs[k - 1]
        prev_rows = []
        for i in range(prev.rows):
            vec = {}
            for j in range(prev.cols):
                for e, c in prev.entries[i][j].coeffs.items():
                    vec[(j, e)] = c
            prev_rows.append(vec)
        syz = syzygy_generators(prev_rows, prev.cols, p, q)
        # group twist-homogeneous syzygies by their degree so combining
        # within one group keeps the complex graded
        shifts = w1
        by_degree: dict[int, list[dict]] = {}
        zero_e = (0,) * q
        for s in syz:
            if any(e == zero_e for (_, e) in s):
                continue
            degs = {sum(e) + shifts[pos] for (pos, e) in s}
            if len(degs) == 1:
                by_degree.setdefault(degs.pop(), []).append(s)
        rows = []
        row_degrees = []
        for _ in range(ranks[k + 1]):
            vec: dict = {}
            deg_choice = None
            if by_degree and rng.random() < 0.9:
                deg_choice = rng.choice(sorted(by_degree))
                for s in by_degree[deg_choice]:
                    if rng.random() < 0.7:
                        c = rng.randrange(1, p)
                        for t, v in s.items():
                            vec[t] = (vec.get(t, 0) + c * v) % p
                vec = {t: v for t, v in vec.items() if v}
            rows.append(vec)
            row_degrees.append(deg_choice if vec else max(shifts) + 1)
        ent = []
        for vec in rows:
            row = [dict() for _ in range(prev.rows)]
            for (pos, e), c in vec.items():
                row[pos][e] = c
            ent.append([RingTowerElement(spec, d) for d in row])
        diffs.append(Matrix(spec, ent))
        w1 = row_degrees
    return make_complex(spec, 0, ranks, diffs)


def fingerprint(module: FiniteModuleData) -> tuple:
    """Isomorphism-invariant summary of a cohomology module: cardinality,
    divisors, and the divisors modulo the variable actions and modulo p."""
    pcols = module.p * np.eye(module.gens, dtype=np.int64)
    return (
        module.cardinality(),
        module.divisors(),
        module.quotient_by_columns(module.actions).divisors(),
        module.quotient_by_columns([pcols]).divisors(),
    )


def row_kernel(a: np.ndarray, p: int, m: int, nrows_hint: int | None = None) -> np.ndarray:
    a = _as_array(a)
    if a.shape[0] == 0:
        return np.zeros((0, nrows_hint or 0), dtype=np.int64)
    return howell_core(a, p, m).kernel_rows()


def column_kernel(a: np.ndarray, p: int, m: int, ncols: int) -> np.ndarray:
    """Generators of {v : A v = 0} as columns."""
    a = _as_array(a, cols_hint=ncols)
    if a.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=np.int64)
    return row_kernel(a.T, p, m).T


def reference_coords(qs: QuotientStructure, x) -> np.ndarray:
    """The dense path: gather the kept U rows into ``qs.projection`` and
    multiply with ``matmul_mod``.  ``QuotientStructure.coords`` must give
    the same coordinates."""
    out = matmul_mod(qs.projection, x, qs.p**qs.m)
    moduli = qs.p ** np.array(qs.exponents, dtype=np.int64)
    return out % moduli.reshape((-1,) + (1,) * (out.ndim - 1))


def reference_embed(qs: QuotientStructure, x: np.ndarray) -> np.ndarray:
    """The dense product, then one row scaling by p^(m - e) per summand.
    ``QuotientStructure.embed_rows`` must give the same columns."""
    N = qs.p**qs.m
    out = matmul_mod(qs.projection, x, N)
    for i, e in enumerate(qs.exponents):
        out[i] = (out[i] * qs.p ** (qs.m - e)) % N
    return out


def embed_dense(qs: QuotientStructure, x: np.ndarray) -> np.ndarray:
    """``QuotientStructure.embed_rows`` of the columns of a 2-d x, any
    int64 entries, read and returned dense."""
    rows = {c: {k: int(y) for k, y in enumerate(row) if y} for c, row in enumerate(np.asarray(x) % (qs.p**qs.m))}
    out = np.zeros((qs.summands, x.shape[1]), dtype=np.int64)
    for i, row in qs.embed_rows(rows).items():
        out[i, list(row)] = list(row.values())
    return out


def dense_column_kernel(sd) -> np.ndarray:
    """``SmithData.kernel_columns`` as a dense cols x kernel array."""
    return _dense_rows(sd.kernel_columns(), sd.cols).T


def reference_rewrite_rule(p: int, m: int, n: int) -> tuple[tuple[int, int], ...]:
    """T^(p^n) = -sum C(p^n, k) T^k mod p^m over every 0 < k < p^n,
    keeping the terms that do not vanish; each binomial comes exactly from
    the one before it.  ``rings._rewrite_rule``, which visits only the k
    that Kummer's theorem leaves, must give the same rule."""
    pn, N = p**n, p**m
    rule = []
    binom = 1
    for k in range(1, pn):
        binom = binom * (pn - k + 1) // k
        c = -binom % N
        if c:
            rule.append((k, c))
    return tuple(rule)


def reference_echelon(work: np.ndarray, active: int, p: int, m: int):
    """The per-column echelon loop: every active column in turn, each
    scanned below the current row.  ``dense_echelon``, which visits only
    the columns with an entry, and ``linalg._echelon`` on row dicts must
    return the same pivots and leave the same rows."""
    N = p**m
    nrows = work.shape[0]
    pivots = []
    r = 0
    for j in range(active):
        if r >= nrows:
            break
        col = work[r:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        vals = dense_valuations(col[nz], p, m)
        k = int(np.argmin(vals))
        vmin = int(vals[k])
        i = r + int(nz[k])
        if i != r:
            work[[r, i]] = work[[i, r]]
        pv = p**vmin
        unit = int(work[r, j]) // pv
        if unit % N != 1:
            work[r, j:] = (work[r, j:] * pow(unit % N, -1, N)) % N
        nzb = np.nonzero(work[r + 1 :, j])[0]
        if nzb.size:
            t = work[r + 1 + nzb, j] // pv
            work[r + 1 + nzb, j:] = (work[r + 1 + nzb, j:] - np.outer(t, work[r, j:])) % N
        pivots.append((r, j, vmin))
        r += 1
    return pivots


def dense_monomial_matrix(spec: RingSpec, exps: tuple[int, ...]) -> np.ndarray:
    """Multiplication by T^exps: the Kronecker product over the variables
    of C^(a_i), where C multiplies 1, T, ..., T^(p^n - 1) by T.  Only a
    product of two non-identity factors can leave [0, p^m) and is reduced.
    The dense reference for ``linalg._monomial_expansion``."""
    rho, N = spec.coefficient_rank, _modulus(spec.p, spec.m)
    dense_shape(rho, rho)
    rewrite = np.zeros(spec.exponent_bound, dtype=np.int64)  # T^(p^n)
    for k, c in reference_rewrite_rule(spec.p, spec.m, spec.n):
        rewrite[k] = c
    out = np.ones((1, 1), dtype=np.int64)
    for i, a in enumerate(exps):
        power = dense_companion_power(rewrite, a, N)
        out = np.kron(out, power) if i else power
        if a and any(exps[:i]):
            out %= N
    return out


def dense_companion_power(rewrite: np.ndarray, a: int, N: int) -> np.ndarray:
    """C^a, where C shifts 1, ..., T^(B-1) up one degree and its last
    column ``rewrite`` holds T^B.  Column j is T^(j+a): e_(j+a) while
    j + a < B, and past that C^(j+a-B+1) e_(B-1), each step of C being
    a shift plus the top entry times ``rewrite``: O(a B), no product.
    Entries stay below N(N-1), which ``_modulus`` keeps inside int64."""
    B = rewrite.size
    out = np.eye(B, k=-a, dtype=np.int64)
    col = np.zeros(B, dtype=np.int64)
    col[-1] = 1  # T^(B-1)
    for k in range(1, a + 1):
        col = np.concatenate(([0], col[:-1])) + col[-1] * rewrite
        col %= N
        if a - k < B:
            out[:, B - 1 - a + k] = col
    return out


def dense_multiplication_matrix(x: RingTowerElement) -> np.ndarray:
    """Matrix of multiplication by x on the monomial basis, over Z/p^m:
    the sum of c times the matrix of T^a over the terms c T^a of x."""
    spec, N = x.spec, x.spec.modulus
    if len(x.coeffs) == 1 and 1 in x.coeffs.values():
        return dense_monomial_matrix(spec, *x.coeffs)
    out = np.zeros(dense_shape(spec.coefficient_rank, spec.coefficient_rank), dtype=np.int64)
    for exps, c in x.coeffs.items():
        term = dense_monomial_matrix(spec, exps)
        out += term if c == 1 else term * c % N
    return out % N


def dense_shape(rows: int, cols: int) -> tuple[int, int]:
    if rows * cols > MAX_EXPANDED_CELLS:
        raise ExpansionTooLarge(f"a dense {rows}x{cols} expansion exceeds {MAX_EXPANDED_CELLS} cells")
    return rows, cols


def dense_expand_scalars(a: Matrix) -> np.ndarray:
    """Regular representation of a patch-ring matrix over Z/p^m.

    Returns the (rows*rho) x (cols*rho) integer matrix of the same map
    on underlying free Z/p^m-modules, rho = p^(n q).  Functorial:
    expand(AB) = expand(A) @ expand(B) mod p^m.  The dense reference:
    ``sparse_dense(linalg.expand_scalars(a))`` must give the same array.
    """
    spec = a.spec
    if spec.kind == "graded":
        raise SpecMismatch("graded matrices have no finite expansion")
    rho = spec.coefficient_rank
    out = np.zeros(dense_shape(a.rows * rho, a.cols * rho), dtype=np.int64)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.entries[i][j]
            if not x.is_zero():
                out[i * rho : (i + 1) * rho, j * rho : (j + 1) * rho] = dense_multiplication_matrix(x)
    return out


def dense_variable_actions(mults, gens: np.ndarray, rk: int, embed, solve, N: int) -> tuple[np.ndarray, ...]:
    """Matrix of each variable on the cohomology generators ``gens``.

    ``mults[j]`` multiplies by variable j on one block of rho monomial
    coordinates, and the ambient free module is rk such blocks: one
    product moves every block, ``embed`` takes the images to quotient
    coordinates, and one ``solve`` of a dense 2-d right-hand side against
    the embedded generators, one per row, writes all g images in the
    generators.
    The dense reference for ``complexes._variable_actions``.
    """
    amb, g = gens.shape
    rho = amb // rk
    blocks = gens.reshape(rk, rho, g).transpose(1, 0, 2).reshape(rho, rk * g)
    actions = []
    for mult in mults:
        moved = matmul_mod(mult, blocks, N).reshape(rho, rk, g).transpose(1, 0, 2)
        x = solve(embed(moved.reshape(amb, g)).T)
        if x is None:
            raise AssertionError("variable action left the cohomology span")
        actions.append(x.T)
    return tuple(actions)


def reference_all_cohomology(c: FreeComplex) -> dict[int, FiniteModuleData]:
    """Cohomology with the dense expansion, embedding, Nakayama step and
    actions: every quotient coordinate is a ``matmul_mod`` product with
    the dense projection, and the top degree's kernel is the identity.  ``complexes._all_cohomology`` must give the same
    generators, relations and actions."""
    spec = c.spec
    p, m = spec.p, spec.m
    N = p**m
    rho = spec.coefficient_rank
    smiths = {}
    for idx, d in enumerate(c.diffs):
        if d.rows and d.cols:
            smiths[c.lo + idx] = smith_transforms(dense_expand_scalars(d), d.rows * rho, p, m, track_v=True)
    out = {}
    for degree in c.degrees:
        rk = c.rank(degree)
        amb = rk * rho
        if amb == 0:
            out[degree] = _zero_module(spec)
            continue
        sm_out = smiths.get(degree)
        kernel = np.eye(amb, dtype=np.int64) if sm_out is None else dense_column_kernel(sm_out)
        sm_in = smiths.get(degree - 1)
        qs = None if sm_in is None else sm_in.quotient()

        def embed(cols: np.ndarray, qs=qs) -> np.ndarray:
            return cols % N if qs is None else reference_embed(qs, cols)

        ek = embed(kernel)
        base = (p * ek) % N
        ek2 = reference_embed(smith_quotient(base, len(ek), p, m), ek) if base.any() else ek
        chosen = _nakayama_choice(row_dicts(ek2, N), ek2.shape[1], p, m)
        gens = kernel[:, chosen]
        solver = DenseHowell(ek[:, chosen].T, p, m)
        mults = [dense_monomial_matrix(spec, tuple(int(i == j) for i in range(spec.q))) for j in range(spec.q)]
        actions = dense_variable_actions(mults, gens, rk, embed, solver.solve, N)
        out[degree] = FiniteModuleData(p, m, gens.shape[1], solver.kernel_rows().T, actions)
    return out


def reference_multiplication_matrix(x: RingTowerElement) -> np.ndarray:
    """The per-column loop: one ring product per basis monomial.
    ``linalg.expand_scalars`` of the 1 x 1 matrix [[x]] must give the
    same matrix."""
    spec = x.spec
    basis = monomial_basis(spec)
    index = {e: k for k, e in enumerate(basis)}
    rho = len(basis)
    out = np.zeros((rho, rho), dtype=np.int64)
    for col, e in enumerate(basis):
        prod = x * RingTowerElement(spec, {e: 1})
        for exps, c in prod.coeffs.items():
            out[index[exps], col] = c
    return out


def reference_evaluate_at_matrices(model: patcher.RInfinityModel, a, mats: list[np.ndarray], size: int, modulus: int) -> np.ndarray:
    """``RInfinityModel.evaluate_at_matrices`` with its recursive power
    cache, verbatim: x_j^k is x_j^(k-1) x_j, one recursion level per
    power, so it fails past the interpreter's recursion limit.  The
    method must give the same matrix wherever this one returns."""
    out = np.zeros((size, size), dtype=np.int64)
    eye = np.eye(size, dtype=np.int64)
    powers: list[dict[int, np.ndarray]] = [dict() for _ in range(model.g)]

    def mat_pow(j: int, k: int) -> np.ndarray:
        if k == 0:
            return eye
        cache = powers[j]
        if k not in cache:
            cache[k] = matmul_mod(mat_pow(j, k - 1), mats[j], modulus)
        return cache[k]

    for e, c in a.items():
        term = (c % modulus) * eye
        for j, k in enumerate(e):
            if k:
                term = matmul_mod(term, mat_pow(j, k), modulus)
        out = (out + term) % modulus
    return out


def reference_ring_map(x: RingTowerElement, target: RingSpec, images) -> RingTowerElement:
    """The general ring map T_i -> images[i], coefficients read in
    ``target``: the sum over the terms of x of c times the product of
    images[i]^e_i, in target arithmetic.  ``rings.base_change`` must give
    the same element when the images are the target's variables, or zero
    when it has none."""
    out = RingTowerElement.zero(target)
    for exps, c in x.coeffs.items():
        term = RingTowerElement.constant(target, c)
        for image, e in zip(images, exps):
            if e:
                term = term * image**e
        out = out + term
    return out


def run_under_memory_limit(code: str, limit: int = 2 << 30, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run Python source ``code`` in a child that first caps its own
    address space, so an oversized allocation fails there with
    MemoryError instead of filling the machine; past ``timeout`` seconds
    the child is killed and ``subprocess.TimeoutExpired`` raised."""
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", prelude + code], env=env, capture_output=True, text=True, timeout=timeout
    )


def run_cli_under_memory_limit(argv: list[str], timeout: float = 30) -> subprocess.CompletedProcess:
    """``patchtower.cli.main(argv)`` in a ``run_under_memory_limit`` child,
    whose exit status is main's return value."""
    return run_under_memory_limit(f"import sys\nfrom patchtower.cli import main\nsys.exit(main({argv!r}))", timeout=timeout)


class Admitted(Exception):
    """Raised by ``size_checks`` in place of the work a count admits."""


@contextlib.contextmanager
def size_checks(module, stop: bool = False):
    """Record ``(cells, limit, fields)`` for every ``check_cells`` call
    that ``module`` makes inside the block, each still checked by the
    real function; with ``stop``, a count that passes raises
    ``Admitted``, so that nothing it admits is allocated."""
    calls = []

    def check(cells, limit, detail, **fields):
        calls.append((cells, limit, fields))
        check_cells(cells, limit, detail, **fields)
        if stop:
            raise Admitted

    with mock.patch.object(module, "check_cells", check):
        yield calls


def tall_complex(spec, rank: int):
    """Ranks [1, rank] with d = (T, 0, ..., 0)^T: a top degree whose
    kernel is its whole ambient module, rank * rho coordinates."""
    t, zero = RingTowerElement.variable(spec, 0), RingTowerElement.zero(spec)
    return make_complex(spec, 0, [1, rank], [Matrix(spec, [[t]] + [[zero]] * (rank - 1))])


def reference_direct_sum(a: FreeComplex, b: FreeComplex) -> FreeComplex:
    """The binary direct sum that ``complexes.direct_sum`` folded before
    it took any number of complexes, entry by entry."""
    if a.spec != b.spec:
        raise SpecMismatch("direct sum across different rings")
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    ranks = [a.rank(d) + b.rank(d) for d in range(lo, hi + 1)]
    zero = RingTowerElement.zero(a.spec)
    diffs = []
    for d in range(lo, hi):
        da, db = a.differential(d), b.differential(d)
        ent = [[zero] * ranks[d - lo] for _ in range(ranks[d - lo + 1])]
        for i in range(da.rows):
            for j in range(da.cols):
                ent[i][j] = da.entries[i][j]
        for i in range(db.rows):
            for j in range(db.cols):
                ent[da.rows + i][da.cols + j] = db.entries[i][j]
        diffs.append(Matrix(a.spec, ent, ranks[d - lo]))
    return FreeComplex(a.spec, lo, ranks, diffs)


def reference_solve(core: HowellCore, b: np.ndarray) -> np.ndarray | None:
    """The one-column loop: clear the pivots of b one by one, collecting
    the multiples of the transform rows.  ``HowellCore.solve`` must give
    the same x."""
    N = core.N
    work = dense_work(core)
    vec = np.asarray(b, dtype=np.int64) % N
    acc = np.zeros(work.shape[1] - core.active, dtype=np.int64)
    for r, j, v in core.pivots:
        e = int(vec[j])
        if e == 0:
            continue
        pv = core.p**v
        if e % pv:
            return None
        t = e // pv
        vec = (vec - t * work[r, : core.active]) % N
        acc = (acc + t * work[r, core.active :]) % N
    if vec.any():
        return None
    return acc


def random_patch_complex(rng: random.Random, spec: RingSpec, max_rank: int = 2, max_length: int = 2) -> FreeComplex:
    """A valid complex over a finite tower ring with random differentials."""
    N = spec.modulus
    length = rng.randrange(0, max_length + 1)
    ranks = [rng.randrange(1, max_rank + 1) for _ in range(length + 1)]

    def random_element() -> RingTowerElement:
        coeffs = {}
        for e in monomial_basis(spec):
            if rng.random() < 0.4:
                c = rng.randrange(N)
                if c:
                    coeffs[e] = c
        return RingTowerElement(spec, coeffs)

    diffs: list[Matrix] = []
    if length >= 1:
        ent = [[random_element() for _ in range(ranks[0])] for _ in range(ranks[1])]
        diffs.append(Matrix(spec, ent))
    rho = spec.coefficient_rank
    basis = monomial_basis(spec)
    for k in range(1, length):
        prev = diffs[k - 1]
        # rows of the next differential are ring-vectors x with x @ prev = 0;
        # in expanded coordinates that is the column kernel of expand(prev^T)
        expanded_t = dense_expand_scalars(prev.transpose())
        lk = column_kernel(expanded_t, spec.p, spec.m, prev.rows * rho)
        rows = []
        for _ in range(ranks[k + 1]):
            acc = np.zeros(prev.rows * rho, dtype=np.int64)
            for gen in lk.T:
                if rng.random() < 0.5:
                    acc = (acc + rng.randrange(N) * gen) % N
            row = []
            for i in range(prev.rows):
                coeffs = {}
                for bi, e in enumerate(basis):
                    c = int(acc[i * rho + bi])
                    if c:
                        coeffs[e] = c
                row.append(RingTowerElement(spec, coeffs))
            rows.append(row)
        m = Matrix(spec, rows) if rows else Matrix.zero(spec, 0, prev.rows)
        diffs.append(m)
    return make_complex(spec, 0, ranks, diffs)


def random_monomial_ideal(rng: random.Random, spec: RingSpec, max_gens: int = 3, max_degree: int = 3):
    """A few random nonconstant monomials."""
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        e = [0] * spec.q
        total = rng.randrange(1, max_degree + 1)
        for _ in range(total):
            e[rng.randrange(spec.q)] += 1
        gens.append(RingTowerElement(spec, {tuple(e): 1}))
    return gens


SMALL_PATCH_SPECS = [
    make_patch_ring(3, 1, 1, 1),  # 27 elements
    make_patch_ring(2, 2, 1, 1),  # 16 elements
    make_patch_ring(2, 1, 1, 2),  # 16 elements
    make_patch_ring(2, 1, 2, 1),  # 16 elements
]


class TruncatedQuotient:
    """Reference: the power-series model modulo an ideal, with canonical
    representatives, as the patcher computed it before
    ``RInfinityModel.quotient`` (coordinates and span size written inline).

    The ideal's underlying Z/p^m-span is closed under multiplication by
    monomials, so a Howell form of that span reduces every element to a
    canonical representative and counts the quotient.
    """

    def __init__(self, model, ideal_gens):
        self.model = model
        self.basis = model.basis()
        self.index = {e: k for k, e in enumerate(self.basis)}
        rows = []
        for gen in ideal_gens:
            gen = model.normalize(gen)
            if not gen:
                continue
            for mono in self.basis:
                prod = model.mul(gen, {mono: 1})
                if prod:
                    rows.append(self._coords(prod))
        arr = np.array(rows, dtype=np.int64) if rows else np.zeros((0, len(self.basis)), dtype=np.int64)
        self.core = howell_core(arr, model.p, model.m, carry=False) if arr.size else None

    def _coords(self, a) -> np.ndarray:
        v = np.zeros(len(self.index), dtype=np.int64)
        for e, c in a.items():
            v[self.index[e]] = c
        return v

    def reduce(self, a):
        v = self._coords(self.model.normalize(a))
        if self.core is not None:
            v = howell_reduce(self.core, v)
        return {self.basis[k]: int(v[k]) for k in np.nonzero(v)[0]}

    def is_zero(self, a) -> bool:
        return not self.reduce(a)

    def cardinality(self) -> int:
        total = self.model.m * len(self.basis)
        spanned = sum(self.model.m - v for _, _, v in self.core.pivots) if self.core is not None else 0
        return self.model.p ** (total - spanned)


def transform_complex(c: FreeComplex, changes: dict[int, tuple[Matrix, Matrix]]) -> FreeComplex:
    """``c`` in a new basis: ``changes[deg]`` is a pair (P, P^-1) of
    ring matrices, and each differential d leaving ``deg`` becomes
    P' d P^-1, with P' the change at ``deg + 1``."""
    diffs = []
    for idx, d in enumerate(c.diffs):
        deg = c.lo + idx
        p_next = changes.get(deg + 1)
        p_cur = changes.get(deg)
        out = d
        if p_next is not None:
            out = p_next[0] @ out
        if p_cur is not None:
            out = out @ p_cur[1]
        diffs.append(out)
    return FreeComplex(c.spec, c.lo, c.ranks, diffs, _checked=True)


def shear_matrix(spec: RingSpec, size: int, a: int) -> Matrix:
    """The identity with ``a`` added at entry (0, 1); its inverse is
    ``shear_matrix(spec, size, -a)``."""
    return Matrix(spec, [
        [RingTowerElement.constant(spec, a if (i, j) == (0, 1) else int(i == j)) for j in range(size)]
        for i in range(size)
    ])


def _signed_permutation_matrices(spec: RingSpec, size: int):
    one = RingTowerElement.one(spec)
    zero = RingTowerElement.zero(spec)
    minus = -one
    for perm in itertools.permutations(range(size)):
        for signs in itertools.product((one, minus), repeat=size):
            ent = [[zero] * size for _ in range(size)]
            inv = [[zero] * size for _ in range(size)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                ent[i][j] = s
                inv[j][i] = s if s == one else minus
            yield Matrix(spec, ent), Matrix(spec, inv)


def reference_rebase_onto(base_k: FreeComplex, cand: FreeComplex) -> FreeComplex | None:
    """The matrix search: each signed permutation is a pair of ring
    matrices, and each attempt past the first degree two ring-matrix
    products and a base change, with at most
    ``patcher.BASIS_CHANGE_BUDGET`` attempts (read at call time).
    ``patcher._rebase_onto`` must return the same complex, or None."""
    if cand.ranks != base_k.ranks or cand.lo != base_k.lo:
        return None
    target = base_k.spec
    degrees = list(cand.degrees)
    changes: dict[int, tuple[Matrix, Matrix]] = {}
    attempts = 0

    def rec(idx: int) -> bool:
        nonlocal attempts
        if idx == len(degrees):
            return True
        deg = degrees[idx]
        size = cand.rank(deg)
        for pair in _signed_permutation_matrices(cand.spec, size):
            attempts += 1
            if attempts > patcher.BASIS_CHANGE_BUDGET:
                return False
            changes[deg] = pair
            ok = True
            if idx > 0:
                prev = degrees[idx - 1]
                got = pair[0] @ cand.differential(prev) @ changes[prev][1]
                ok = got.map_entries(lambda x: base_change(x, target), target) == base_k.differential(prev)
            if ok and rec(idx + 1):
                return True
        changes.pop(deg, None)
        return False

    if not rec(0):
        return None
    return transform_complex(cand, dict(changes))


def refresh_level(tower, idx: int, params: ScenarioParams, new_complex: FreeComplex) -> None:
    """Put ``new_complex`` in level ``idx`` of a generated tower and
    recompute the data derived from it: the actions and the witness."""
    params = params.resolved()
    lev = tower.levels[idx]
    lev.complex = new_complex
    lev.x_actions, top = _level_data(params, new_complex)
    quot = top.quotient_by_columns(top.actions)
    lev.base_iso = smith_quotient(quot.relations, quot.gens, tower.p, lev.precision).projection % (tower.p**lev.precision)


# rank 4 leaves 4!·2^4 = 384 signed permutations per degree, so a search
# over two degrees passes the basis-change budget
SHEARED = ScenarioParams(p=3, q=1, r=1, rank=4, seed=0)


def sheared_tower(precisions):
    """The ``SHEARED`` tower at ``precisions`` with the middle term of
    level n + 1 sheared by n: its basis vector 1 gains n times vector 0.
    Two levels align by a signed permutation exactly when their shears
    agree up to sign modulo 3, so ``patch`` must search basis changes:
    with two levels it finds no chain, with three it rebases chain
    [2, 3]."""
    params = replace(SHEARED, precisions=tuple(precisions))
    tower, _, _ = gen_scenario(params)
    mid = tower.d - 1
    for idx in range(1, len(tower.levels)):
        cx = tower.levels[idx].complex
        size = cx.rank(mid)
        change = (shear_matrix(cx.spec, size, idx), shear_matrix(cx.spec, size, -idx))
        refresh_level(tower, idx, params, transform_complex(cx, {mid: change}))
    return tower


def reference_parser() -> argparse.ArgumentParser:
    """The argparse tree the command line was parsed with before
    ``cli.parse_args``; the differential tests read it as the reference."""
    parser = argparse.ArgumentParser(
        prog="patchtower",
        description="exact verification of minimal complexes, graded invariants, and patching towers",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("gen", help="generate a scenario tower with its oracle sidecar")
    g.add_argument("--p", type=int, default=3)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--d", type=int, default=None)
    g.add_argument("--precisions", type=int, nargs="*", default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rank", type=int, default=1)
    g.add_argument("--rinf-degree", type=int, default=2)
    g.add_argument("--perturbation", choices=PERTURBATIONS, default=None)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_gen)

    v = add_parser("verify-ha", help="height-amplitude checks on a graded complex file")
    v.add_argument("complex")
    v.set_defaults(func=cmd_verify_ha)

    i = add_parser("invariants", help="homological invariants of a graded module file")
    i.add_argument("module")
    i.set_defaults(func=cmd_invariants)

    m = add_parser("minimize", help="canonical minimal form of a complex file")
    m.add_argument("complex")
    m.set_defaults(func=cmd_minimize)

    pt = add_parser("patch", help="validate, patch and certify a tower file")
    pt.add_argument("tower")
    pt.add_argument("--precision", type=int, default=None)
    pt.set_defaults(func=cmd_patch)

    return parser
