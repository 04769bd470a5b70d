"""Root combinatorics: exact pairings, Weyl action, parabolic bookkeeping."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenspec.roots import (RHO_CHECK, RootDatum, WeylElement,
                             association_classes, tau_hat, transporters,
                             truncation_terms)

GL2 = RootDatum(2)
GL3 = RootDatum(3)


def _levi(p) -> tuple[int, ...]:
    """A standard parabolic by the sorted simple roots of its Levi: () is
    P0, and every simple root is G."""
    return tuple(sorted(p.levi_roots))


def _inverse(w: WeylElement) -> WeylElement:
    """The inverse permutation: w^-1(w(i)) = i."""
    return WeylElement(w.datum, tuple(w.perm.index(i) + 1
                                      for i in range(1, w.datum.n + 1)))


def _named_gl3():
    s1 = GL3.simple_reflection(1)
    s2 = GL3.simple_reflection(2)
    return {"e": GL3.identity(), "s1": s1, "s2": s2,
            "r1": s1 * s2, "r2": s2 * s1, "s3": s1 * s2 * s1}


def test_rho_pairings():
    rho = GL3.rho()
    assert rho.pairing(1) == 1
    assert rho.pairing(2) == 1
    assert rho.pairing(RHO_CHECK) == 2


def test_rho_norm():
    rho = GL3.rho()
    assert rho.inner(rho) == 2


def test_delta_cross_pairings():
    d1 = GL3.weight((1, Fraction(-1, 2)))
    d2 = GL3.weight((Fraction(-1, 2), 1))
    assert d1.pairing(2) == Fraction(-1, 2)
    assert d2.pairing(1) == Fraction(-1, 2)


def test_gram_is_inverse_cartan():
    # <w_i, w_j> = (C^-1)_ij in the <alpha,alpha> = 2 normalization
    assert GL3.gram_fw == ((Fraction(2, 3), Fraction(1, 3)),
                           (Fraction(1, 3), Fraction(2, 3)))
    assert GL2.gram_fw == ((Fraction(1, 2),),)


def test_weyl_act_identity():
    rho = GL3.rho()
    assert GL3.identity().act(rho).coeffs == rho.coeffs


def test_weyl_act_paper_images():
    named = _named_gl3()
    w1 = GL3.fundamental_weight(1)
    w2 = GL3.fundamental_weight(2)
    assert named["s3"].act(w1).coeffs == (0, -1)   # s3(w1) = -w2
    assert named["s3"].act(w2).coeffs == (-1, 0)   # s3(w2) = -w1
    assert named["r2"].act(w1).coeffs == (0, -1)   # r2(w1) = -w2
    assert named["r1"].act(w2).coeffs == (-1, 0)   # r1(w2) = -w1


def test_act_coords_on_arrays_is_pointwise_act():
    # the action on a cloud of weights is the action on each of its points,
    # bit for bit, also for coordinate arrays that only broadcast together
    rng = np.random.default_rng(3)
    for datum, shapes in ((GL3, [(4, 1), (1, 5)]),
                          (RootDatum(4), [(6,), (6,), (1,)])):
        coords = [rng.uniform(-2, 2, sh) + 1j * rng.uniform(-2, 2, sh)
                  for sh in shapes]
        grid = np.broadcast_arrays(*coords)
        for w in datum.weyl_group():
            got = np.broadcast_arrays(*w.act_coords(*coords))
            for k in np.ndindex(grid[0].shape):
                lam = datum.weight(tuple(complex(c[k]) for c in grid))
                want = np.array(w.act(lam).coeffs, dtype=np.complex128)
                have = np.array([g[k] for g in got])
                assert have.tobytes() == want.tobytes()


def test_inversion_sets_brute_force():
    # independent oracle: count pairs i < j with w(i) > w(j)
    for w in GL3.weyl_group():
        oracle = {(i, j) for i in (1, 2) for j in range(i + 1, 4)
                  if w(i) > w(j)}
        assert w.inversions() == oracle
    named = _named_gl3()
    assert named["e"].inversions() == frozenset()
    assert named["s1"].inversions() == {(1, 2)}
    assert named["s3"].inversions() == {(1, 2), (2, 3), (1, 3)}


def test_inversion_set_matches_length():
    for n in (2, 3, 4):
        for w in RootDatum(n).weyl_group():
            assert len(w.inversions()) == w.length()


def test_transporters_gl3():
    p0 = GL3.parabolic([])
    p1 = GL3.parabolic([1])
    p2 = GL3.parabolic([2])
    g = GL3.parabolic([1, 2])
    assert len(transporters(p1, p2)) == 1
    assert len(transporters(p0, p0)) == 6
    assert transporters(g, g) == frozenset([GL3.identity()])


def test_transporters_symmetric():
    for n in (2, 3, 4):
        datum = RootDatum(n)
        ps = datum.standard_parabolics()
        for p in ps:
            for q in ps:
                assert bool(transporters(p, q)) == bool(transporters(q, p))


def test_association_counting_exhaustive():
    for n in (2, 3, 4, 5):
        for cls in association_classes(RootDatum(n)):
            assert cls.chamber_count() == cls.w_count() * cls.a_count


def test_association_gl2_gl3_structure():
    classes2 = association_classes(GL2)
    assert [sorted(_levi(p) for p in c.members) for c in classes2] == \
        [[()], [(1,)]]
    c0 = classes2[0]
    assert (c0.w_count(), c0.chamber_count(), c0.a_count) == (2, 2, 1)

    classes3 = association_classes(GL3)
    levis = [sorted(_levi(p) for p in c.members) for c in classes3]
    assert levis == [[()], [(1,), (2,)], [(1, 2)]]
    mid = classes3[1]
    assert (mid.w_count(), mid.a_count, mid.chamber_count()) == (1, 2, 2)
    assert classes3[0].chamber_count() == 6


def test_tau_hat_cone():
    p0 = GL3.parabolic([])
    assert tau_hat(p0, (0.5, 2.0)) is True
    assert tau_hat(p0, (0.0, 0.0)) is False
    assert tau_hat(p0, (-1.0, -1.0)) is False
    p1 = GL3.parabolic([1])
    assert tau_hat(p1, (-5.0, 1.0)) is True   # only the w2 condition remains
    assert tau_hat(GL3.parabolic([1, 2]), (0.0, 0.0)) is False


def test_truncation_terms():
    terms2 = truncation_terms(GL2)
    assert [(_levi(p), s) for p, s in terms2] == [((1,), 1), ((), -1)]
    terms3 = truncation_terms(GL3)
    assert [(_levi(p), s) for p, s in terms3] == \
        [((1, 2), 1), ((1,), -1), ((2,), -1), ((), 1)]
    terms4 = truncation_terms(RootDatum(4))
    assert len(terms4) == 8
    for n in (2, 3, 4, 5):
        assert sum(s for _, s in truncation_terms(RootDatum(n))) == 0


@st.composite
def gl3_weyl(draw):
    perm = draw(st.permutations((1, 2, 3)))
    return WeylElement(GL3, tuple(perm))


@st.composite
def gl3_rational_weight(draw):
    f = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    return GL3.weight((draw(f), draw(f)))


@given(gl3_weyl(), gl3_rational_weight(), gl3_rational_weight())
@settings(max_examples=150, deadline=None)
def test_bilinear_form_weyl_invariant_exact(w, lam, mu):
    assert w.act(lam).inner(w.act(mu)) == lam.inner(mu)


@given(gl3_weyl(), gl3_weyl(), gl3_rational_weight())
@settings(max_examples=150, deadline=None)
def test_action_is_homomorphism(w1, w2, lam):
    assert (w1 * w2).act(lam).coeffs == w1.act(w2.act(lam)).coeffs


@given(gl3_weyl(), gl3_weyl())
@settings(max_examples=100, deadline=None)
def test_length_parity_additive(w1, w2):
    total = (w1 * w2).length()
    assert total <= w1.length() + w2.length()
    assert (total - w1.length() - w2.length()) % 2 == 0


@given(gl3_weyl())
@settings(max_examples=50, deadline=None)
def test_length_of_inverse(w):
    inverse = _inverse(w)
    assert w * inverse == inverse * w == GL3.identity()
    assert w.length() == inverse.length()


def test_inversions_additive_when_lengths_add():
    # when l(w1 w2) = l(w1) + l(w2), the inversion set of the product is
    # the disjoint union of inv(w2) and the w2-preimage of inv(w1)
    for datum in (GL3, RootDatum(4)):
        for w1 in datum.weyl_group():
            for w2 in datum.weyl_group():
                prod = w1 * w2
                if prod.length() != w1.length() + w2.length():
                    continue
                pulled = set()
                for root in w1.inversions():
                    sign, img = _inverse(w2).act_root(root)
                    assert sign > 0  # preimages stay positive in this case
                    pulled.add(img)
                assert prod.inversions() == w2.inversions() | pulled
                assert not (w2.inversions() & pulled)
