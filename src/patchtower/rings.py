"""Coefficient rings, truncated tower rings, and graded polynomial rings.

Three ring kinds share one element representation (a finite map from
exponent vectors to residues):

* ``coefficient`` -- Z/p^m, no variables.
* ``patch`` -- (Z/p^m)[T_1..T_q] modulo the relations (1+T_i)^(p^n) - 1,
  a finite local ring with monomial basis {T^a : 0 <= a_i < p^n}.
* ``graded`` -- F_p[T_1..T_q], the graded polynomial model of a local
  ring (unit test: nonzero constant term).

All values are immutable and in canonical normal form, so equality is
dictionary equality and serialization is bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import (
    InvalidParameter,
    NonPrime,
    NotAReduction,
    NotAUnit,
    SpecMismatch,
    UnsupportedRing,
)

KINDS = ("coefficient", "patch", "graded")


# Miller-Rabin with these bases decides every n < 2^64 (Jaeschke 1993;
# the first twelve primes suffice below 3.3 * 10^24)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality below 2^64; larger n is refused."""
    if n >= 2**64:
        raise InvalidParameter(f"primality of {n} >= 2^64 is not decided")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """Identifies one ring of the family: prime, precision, level, variables, kind."""

    p: int
    m: int
    n: int
    q: int
    kind: str

    @property
    def modulus(self) -> int:
        return self.p**self.m

    @property
    def exponent_bound(self) -> int | None:
        """Strict bound on each exponent, or None for the graded ring."""
        if self.kind == "patch":
            return self.p**self.n
        if self.kind == "coefficient":
            return 1
        return None

    @property
    def coefficient_rank(self) -> int:
        """Rank of the ring as a free Z/p^m-module (patch and coefficient kinds)."""
        if self.kind == "graded":
            raise UnsupportedRing("graded rings are not finite over Z/p^m")
        return self.p ** (self.n * self.q)


def coefficient_ring(p: int, m: int) -> RingSpec:
    _check_pm(p, m)
    return RingSpec(p, m, 0, 0, "coefficient")


def make_patch_ring(p: int, m: int, n: int, q: int) -> RingSpec:
    """Build the level-n truncated tower ring in q variables at precision m.

    The reduction rule rewrites T_i^(p^n) through the expanded relation
    (1+T_i)^(p^n) - 1 = 0, so normal forms are supported on exponents
    below p^n.  With q = 0 this degenerates to the coefficient ring.
    """
    _check_pm(p, m)
    if n < 1:
        raise InvalidParameter(f"tower level must be >= 1, got {n}")
    if q < 0:
        raise InvalidParameter(f"variable count must be >= 0, got {q}")
    if q == 0:
        return coefficient_ring(p, m)
    return RingSpec(p, m, n, q, "patch")


def graded_ring(p: int, q: int) -> RingSpec:
    _check_pm(p, 1)
    if q < 0:
        raise InvalidParameter(f"variable count must be >= 0, got {q}")
    return RingSpec(p, 1, 0, q, "graded")


def _check_pm(p: int, m: int) -> None:
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if m < 1:
        raise InvalidParameter(f"precision must be >= 1, got {m}")


@lru_cache(maxsize=None)
def _rewrite_rule(p: int, m: int, n: int) -> tuple[tuple[int, int], ...]:
    # T^(p^n) = -sum_{0<k<p^n} C(p^n, k) T^k  (mod p^m).  By Kummer's
    # theorem v_p(C(p^n, k)) = n - v_p(k) for 0 < k < p^n, so a term
    # survives mod p^m exactly when v_p(k) > n - m: only those k, the
    # multiples of p^max(n-m+1, 0), are visited, and none of them vanishes.
    pn, N = p**n, p**m
    step = p ** max(n - m + 1, 0)
    return tuple((k, -comb(pn, k) % N) for k in range(step, pn, step))


def _normalize(spec: RingSpec, coeffs) -> dict[tuple[int, ...], int]:
    N = spec.modulus
    q = spec.q
    bound = spec.exponent_bound
    out: dict[tuple[int, ...], int] = {}
    stack = [(tuple(e), int(c)) for e, c in coeffs.items()]
    while stack:
        exps, c = stack.pop()
        if len(exps) != q:
            raise SpecMismatch(f"exponent vector {exps} has wrong length for q={q}")
        c %= N
        if c == 0:
            continue
        if any(e < 0 for e in exps):
            raise SpecMismatch(f"negative exponent in {exps}")
        if spec.kind == "patch":
            over = next((i for i, e in enumerate(exps) if e >= bound), None)
            if over is not None:
                base = list(exps)
                base[over] -= bound
                for k, ck in _rewrite_rule(spec.p, spec.m, spec.n):
                    e2 = list(base)
                    e2[over] += k
                    stack.append((tuple(e2), c * ck))
                continue
        acc = (out.get(exps, 0) + c) % N
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


class RingTowerElement:
    """A ring element in canonical normal form.

    ``coeffs`` maps exponent vectors (length q, entries below the bound
    for patch rings) to residues in [1, p^m).  Two elements are equal
    exactly when spec and stored map coincide.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: RingSpec, coeffs, *, _normalized: bool = False):
        object.__setattr__(self, "spec", spec)
        if not _normalized:
            coeffs = _normalize(spec, coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("RingTowerElement is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> "RingTowerElement":
        return cls(spec, {}, _normalized=True)

    @classmethod
    def one(cls, spec: RingSpec) -> "RingTowerElement":
        return cls.constant(spec, 1)

    @classmethod
    def constant(cls, spec: RingSpec, c: int) -> "RingTowerElement":
        c = int(c) % spec.modulus
        key = (0,) * spec.q
        return cls(spec, {key: c} if c else {}, _normalized=True)

    @classmethod
    def variable(cls, spec: RingSpec, i: int, power: int = 1) -> "RingTowerElement":
        if not 0 <= i < spec.q:
            raise InvalidParameter(f"variable index {i} out of range for q={spec.q}")
        exps = tuple(power if j == i else 0 for j in range(spec.q))
        return cls(spec, {exps: 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs.get((0,) * self.spec.q, 0)

    def is_unit(self) -> bool:
        """Local-ring criterion: the constant term is a unit in Z/p^m."""
        return self.constant_term() % self.spec.p != 0

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "RingTowerElement") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "RingTowerElement") -> "RingTowerElement":
        self._check(other)
        N = self.spec.modulus
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc = (out.get(e, 0) + c) % N
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return RingTowerElement(self.spec, out, _normalized=True)

    def __neg__(self) -> "RingTowerElement":
        N = self.spec.modulus
        return RingTowerElement(
            self.spec, {e: N - c for e, c in self.coeffs.items()}, _normalized=True
        )

    def __sub__(self, other: "RingTowerElement") -> "RingTowerElement":
        return self + (-other)

    def __mul__(self, other: "RingTowerElement") -> "RingTowerElement":
        self._check(other)
        prod: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0) + c1 * c2
        return RingTowerElement(self.spec, prod)

    def scale(self, c: int) -> "RingTowerElement":
        N = self.spec.modulus
        c = int(c) % N
        out = {}
        for e, v in self.coeffs.items():
            acc = (v * c) % N
            if acc:
                out[e] = acc
        return RingTowerElement(self.spec, out, _normalized=True)

    def __pow__(self, k: int) -> "RingTowerElement":
        if k < 0:
            raise InvalidParameter("negative powers are not defined; use invert")
        result = RingTowerElement.one(self.spec)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def invert(self) -> "RingTowerElement":
        """Exact inverse of a unit.

        Over patch and coefficient rings the maximal ideal is nilpotent,
        so the geometric series terminates.  Over the graded model only
        nonzero scalars have polynomial inverses.
        """
        if not self.is_unit():
            raise NotAUnit(f"{self!r} is not a unit")
        spec = self.spec
        N = spec.modulus
        c = self.constant_term()
        cinv = pow(c, -1, N)
        y = self - RingTowerElement.constant(spec, c)
        if spec.kind == "graded":
            if not y.is_zero():
                raise UnsupportedRing(
                    "only scalar units have exact inverses in the graded model"
                )
            return RingTowerElement.constant(spec, cinv)
        # 1/(c + y) = cinv * sum (-cinv*y)^k, and y is nilpotent.
        z = y.scale(N - cinv)
        acc = RingTowerElement.one(spec)
        term = z
        guard = 0
        while not term.is_zero():
            acc = acc + term
            term = term * z
            guard += 1
            if guard > 10_000:
                raise AssertionError("nilpotency bound exceeded")
        return acc.scale(cinv)

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingTowerElement)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.spec, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            mono = "*".join(
                f"T{i+1}^{e}" if e > 1 else f"T{i+1}" for i, e in enumerate(exps) if e
            )
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)


def base_change(x: RingTowerElement, target: RingSpec) -> RingTowerElement:
    """x carried onto a ring of the family with the same prime and no
    larger precision or level: T_i -> T_i when ``target`` keeps the
    variables, T_i -> 0 when it has none.

    The target's normal form reduces each coefficient mod p^m' and
    rewrites exponents past p^n'; this is well defined because
    (1+T)^(p^n') - 1 divides (1+T)^(p^n) - 1 for n' <= n.  Onto the
    graded model it reads the coefficients mod p, which is no ring
    homomorphism; callers that need d∘d = 0 there check it themselves.
    """
    _check_base_change(x.spec, target)
    q = target.q
    return RingTowerElement(target, {e[:q]: c for e, c in x.coeffs.items() if not any(e[q:])})


def _check_base_change(source: RingSpec, target: RingSpec) -> None:
    if (
        source.p != target.p
        or target.m > source.m
        or target.n > source.n
        or target.q not in (0, source.q)
    ):
        raise NotAReduction(
            f"(p={source.p}, m={source.m}, n={source.n}, q={source.q}) does not reduce onto "
            f"(p={target.p}, m={target.m}, n={target.n}, q={target.q})"
        )
