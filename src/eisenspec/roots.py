"""Exact combinatorics of the type A root system for GL(n).

Everything here is exact: weights are stored in the fundamental-weight basis
with Fraction (or integer) coordinates, so every pairing with a simple coroot
reads off a coordinate, and the Weyl action / bilinear form are computed in
rational arithmetic.  Complex coordinates are allowed (the analysis modules
feed them in); exactness then degrades gracefully to complex floats.

Conventions:

* Simple roots alpha_1..alpha_{n-1} of A_{n-1}, normalized so that
  <alpha_i, alpha_i> = 2; coroots identify with roots (simply laced), hence
  <rho, rho_check> = 2 for GL(3).
* A positive root is the pair (i, j) with 1 <= i < j <= n, standing for
  e_i - e_j; its coroot pairs with a weight by summing coordinates i..j-1,
  and its height is j - i.
* Weyl elements are permutations w of {1..n} acting by w(e_i) = e_{w(i)};
  composition is function composition, (w1*w2)(i) = w1(w2(i)).
* A standard parabolic subgroup is the subset of simple-root indices inside
  its Levi; the empty set is the minimal parabolic, the full set is G.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "RHO_CHECK",
    "RootDatum",
    "Weight",
    "WeylElement",
    "StandardParabolic",
    "AssociationClass",
    "transporters",
    "association_classes",
    "tau_hat",
    "truncation_terms",
]

# Sentinel index selecting the coroot rho_check = sum of all simple coroots.
RHO_CHECK = "rho"


@dataclass(frozen=True)
class RootDatum:
    """The root datum of GL(n): its roots, weights, Weyl group and
    standard parabolics."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("RootDatum needs n >= 2")

    @property
    def rank(self) -> int:
        return self.n - 1

    @property
    def gram_fw(self) -> tuple[tuple[Fraction, ...], ...]:
        """Gram matrix <w_i, w_j> of the fundamental weights (exact)."""
        r = self.rank
        basis = [self.fundamental_weight(i + 1) for i in range(r)]
        return tuple(
            tuple(basis[i].inner(basis[j]) for j in range(r))
            for i in range(r))

    def positive_roots(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j)
                     for i in range(1, self.n)
                     for j in range(i + 1, self.n + 1))

    def root_height(self, root: tuple[int, int]) -> int:
        i, j = root
        return j - i

    def weight(self, coeffs: Sequence) -> "Weight":
        return Weight(self, tuple(coeffs))

    def fundamental_weight(self, i: int) -> "Weight":
        if not 1 <= i <= self.rank:
            raise ValueError(f"fundamental weight index {i} out of range")
        return self.weight(tuple(1 if k == i - 1 else 0 for k in range(self.rank)))

    def rho(self) -> "Weight":
        return self.weight((1,) * self.rank)

    def weyl_group(self) -> tuple["WeylElement", ...]:
        return _weyl_group(self.n)

    def identity(self) -> "WeylElement":
        return WeylElement(self, tuple(range(1, self.n + 1)))

    def simple_reflection(self, i: int) -> "WeylElement":
        perm = list(range(1, self.n + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return WeylElement(self, tuple(perm))

    def parabolic(self, levi_roots: Iterable[int]) -> "StandardParabolic":
        return StandardParabolic(self, frozenset(levi_roots))

    def standard_parabolics(self) -> tuple["StandardParabolic", ...]:
        """All 2^(n-1) standard parabolics, largest Levi first."""
        idx = list(range(1, self.n))
        subsets = sorted(
            (frozenset(c) for r in range(self.rank + 1)
             for c in itertools.combinations(idx, r)),
            key=lambda s: (-len(s), tuple(sorted(s))))
        return tuple(StandardParabolic(self, s) for s in subsets)


@lru_cache(maxsize=None)
def _weyl_group(n: int) -> tuple["WeylElement", ...]:
    datum = RootDatum(n)
    return tuple(WeylElement(datum, p)
                 for p in itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _inversions(w: "WeylElement") -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for (i, j) in w.datum.positive_roots()
                     if w(i) > w(j))


def _epsilon_coords(coeffs) -> tuple:
    """Lift to e-coordinates (v_1..v_n) with the gauge v_n = 0."""
    partial = []
    total = 0
    for c in reversed(coeffs):
        total = total + c
        partial.append(total)
    return tuple(reversed(partial)) + (0,)


@dataclass(frozen=True)
class Weight:
    """A linear functional on the torus, in fundamental-weight coordinates.

    coeffs[i] = <weight, alpha_check_{i+1}> by the basis convention.
    """

    datum: RootDatum
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.datum.rank:
            raise ValueError("coefficient count does not match the rank")

    def pairing(self, i):
        """<self, alpha_check_i>, or <self, rho_check> for i = RHO_CHECK."""
        if i == RHO_CHECK:
            return sum(self.coeffs)
        if not 1 <= i <= self.datum.rank:
            raise ValueError(f"coroot index {i} out of range")
        return self.coeffs[i - 1]

    def pair_root(self, root: tuple[int, int]):
        """<self, coroot of e_i - e_j> = sum of coordinates i..j-1."""
        i, j = root
        return sum(self.coeffs[i - 1:j - 1])

    def inner(self, other: "Weight"):
        """Bilinear form with <alpha_i, alpha_i> = 2 (trace form mod center)."""
        if other.datum != self.datum:
            raise ValueError("weights over different root data")
        v = _epsilon_coords(self.coeffs)
        u = _epsilon_coords(other.coeffs)
        n = self.datum.n
        dot = sum(a * b for a, b in zip(v, u))
        return dot - Fraction(1, n) * sum(v) * sum(u)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element of GL(n) as a permutation, perm[i-1] = w(i)."""

    datum: RootDatum
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, self.datum.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.datum.n}: {self.perm}")

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.datum,
                           tuple(self(other(i)) for i in range(1, self.datum.n + 1)))

    def length(self) -> int:
        return len(self.inversions())

    def inversions(self) -> frozenset[tuple[int, int]]:
        """The positive roots (i, j) sent to negative roots, computed once
        per element."""
        return _inversions(self)

    def act_root(self, root: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        """Image of the positive root e_i - e_j as (sign, positive root)."""
        i, j = root
        a, b = self(i), self(j)
        return (1, (a, b)) if a < b else (-1, (b, a))

    def act_coords(self, *coords) -> tuple:
        """The action on fundamental-weight coordinates: lift to e-coordinates,
        permute, take differences (exact for rational coordinates).  Arrays
        of one broadcast shape act as a cloud of weights at once."""
        v = _epsilon_coords(coords)
        u = [None] * self.datum.n
        for i, image in enumerate(self.perm):
            u[image - 1] = v[i]
        return tuple(u[k] - u[k + 1] for k in range(self.datum.rank))

    def act(self, weight: Weight) -> Weight:
        """Linear action on weights (exact for rational coordinates)."""
        return Weight(self.datum, self.act_coords(*weight.coeffs))


@dataclass(frozen=True)
class StandardParabolic:
    """Standard parabolic subgroup, identified by its Levi's simple roots."""

    datum: RootDatum
    levi_roots: frozenset[int]

    def __post_init__(self):
        if not self.levi_roots <= set(range(1, self.datum.n)):
            raise ValueError("levi_roots must be simple-root indices")

    @property
    def a_dim(self) -> int:
        """dim a_P (before the quotient by a_G)."""
        return self.datum.n - len(self.levi_roots)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The composition of n cut by the simple roots not in the Levi."""
        out, cur = [], [1]
        for i in range(1, self.datum.n):
            if i in self.levi_roots:
                cur.append(i + 1)
            else:
                out.append(tuple(cur))
                cur = [i + 1]
        out.append(tuple(cur))
        return tuple(out)


@dataclass(frozen=True)
class AssociationClass:
    """A set of standard parabolics with Weyl-conjugate split components."""

    members: frozenset[StandardParabolic]

    @property
    def a_count(self) -> int:
        return len(self.members)

    def w_count(self) -> int:
        p = next(iter(self.members))
        return len(transporters(p, p))

    def chamber_count(self) -> int:
        """Chambers cut in a_P/a_G by the restricted root hyperplanes: k!."""
        p = next(iter(self.members))
        return math.factorial(len(p.blocks()))


def transporters(p: StandardParabolic, q: StandardParabolic) -> frozenset[WeylElement]:
    """Minimal-length Weyl elements carrying a_P onto a_Q (possibly empty).

    w carries a_P to a_Q iff it maps the block partition of P onto that of Q;
    minimality in its coset of the Levi Weyl group is the usual condition
    that w keep the Levi's simple roots positive.
    """
    if p.datum != q.datum:
        raise ValueError("parabolics over different root data")
    p_blocks = frozenset(frozenset(b) for b in p.blocks())
    q_blocks = frozenset(frozenset(b) for b in q.blocks())
    found = []
    for w in p.datum.weyl_group():
        image = frozenset(frozenset(w(i) for i in b) for b in p_blocks)
        if image != q_blocks:
            continue
        if all(w.act_root((i, i + 1))[0] > 0 for i in p.levi_roots):
            found.append(w)
    return frozenset(found)


def association_classes(datum: RootDatum) -> list[AssociationClass]:
    """Partition of the standard parabolics into association classes.

    Ordered from the minimal parabolic's class to {G}.
    """
    remaining = list(datum.standard_parabolics())
    classes = []
    while remaining:
        p = remaining[0]
        members = [q for q in remaining if transporters(p, q)]
        for q in members:
            remaining.remove(q)
        classes.append(AssociationClass(frozenset(members)))
    classes.sort(key=lambda c: -next(iter(c.members)).a_dim)
    return classes


def tau_hat(p: StandardParabolic, coroot_coords: Sequence[float]) -> bool:
    """Characteristic function of the open cone cut by fundamental weights.

    The vector H = sum coroot_coords[i-1] * alpha_check_i lies in the cone of
    P iff <w_i, H> = coroot_coords[i-1] > 0 (strictly) for every fundamental
    weight index i outside the Levi.  The degenerate cone of G has empty
    interior under the strict convention, so H = 0 is never inside.
    """
    if len(coroot_coords) != p.datum.rank:
        raise ValueError("coordinate count does not match the rank")
    conditions = [i for i in range(1, p.datum.n) if i not in p.levi_roots]
    if not conditions:
        return False
    return all(coroot_coords[i - 1] > 0 for i in conditions)


def truncation_terms(datum: RootDatum) -> list[tuple[StandardParabolic, int]]:
    """One (parabolic, sign) term per P containing P0; sign = (-1)^(a_P - a_G)."""
    return [(p, (-1) ** (p.a_dim - 1)) for p in datum.standard_parabolics()]
