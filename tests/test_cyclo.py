"""Exact cyclotomic scalar arithmetic."""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arrangekit.cyclo import (
    CycRat,
    cyc,
    cyc_from_json,
    cyc_to_json,
    embed,
    euclid_gcd,
    format_cycrat,
    is_unit,
    nearest_integral,
    parse_cycrat,
    scalar_key,
    to_complex,
    unit_canonical,
    units,
    vector_content,
    zeta,
)
from arrangekit.errors import RingMismatch

rationals = st.fractions(max_denominator=40)
both_rings = pytest.mark.parametrize("k", [4, 6])


# -- ring structure ---------------------------------------------------------


def test_zeta_squares():
    assert zeta(4) * zeta(4) == CycRat(-1, 0, 4)
    # minimal polynomial x^2 - x + 1
    assert zeta(6) * zeta(6) == CycRat(-1, 1, 6)


def test_division_identity():
    x = cyc(1, 1, 4)
    assert x / x == 1
    y = cyc(3, -5, 6)
    assert (x * CycRat(2, 7, 4)) / x == CycRat(2, 7, 4)
    assert y * y.inverse() == 1


def test_conjugation():
    assert cyc(1, 1, 4).conjugate() == cyc(1, -1, 4)
    assert zeta(6).conjugate() == CycRat(1, -1, 6)
    assert cyc(1, 1, 4).norm() == 2
    assert cyc(1, 1, 6).norm() == 3


def test_float_parts_rejected():
    with pytest.raises(TypeError):
        CycRat(0.5, 0, 4)


def test_mixed_rings_raise():
    with pytest.raises(RingMismatch):
        zeta(4) + zeta(6)
    with pytest.raises(RingMismatch):
        zeta(6) * zeta(4)


def test_cross_ring_equality_is_rational_only():
    assert CycRat(3, 0, 4) == CycRat(3, 0, 6)
    assert zeta(4) != zeta(6)
    assert hash(CycRat(3, 0, 4)) == hash(CycRat(3, 0, 6)) == hash(Fraction(3))


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        cyc(1, 2, 6) / CycRat(0, 0, 6)


def test_integer_and_fraction_coercion():
    assert 1 + zeta(4) == cyc(1, 1, 4)
    assert zeta(6) * Fraction(1, 2) == CycRat(0, Fraction(1, 2), 6)
    assert 2 / cyc(1, 1, 4) == cyc(1, -1, 4)


def test_power():
    assert zeta(6) ** 6 == 1
    assert zeta(6) ** 3 == -1
    assert zeta(4) ** -1 == -zeta(4)


@both_rings
@given(parts=st.tuples(*(rationals,) * 6))
def test_field_axioms(k, parts):
    x = CycRat(parts[0], parts[1], k)
    y = CycRat(parts[2], parts[3], k)
    z = CycRat(parts[4], parts[5], k)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@both_rings
@given(parts=st.tuples(*(rationals,) * 4))
def test_norm_multiplicative_and_conj_hom(k, parts):
    x = CycRat(parts[0], parts[1], k)
    y = CycRat(parts[2], parts[3], k)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@both_rings
@given(a=rationals, b=rationals)
def test_norm_via_involution(k, a, b):
    x = CycRat(a, b, k)
    n = x * x.conjugate()
    assert n.is_rational() and n.as_fraction() == x.norm()
    assert n.as_fraction() >= 0
    assert (n.as_fraction() == 0) == (not x)


@both_rings
@given(parts=st.tuples(*(rationals,) * 4))
def test_division_inverts_multiplication(k, parts):
    x = CycRat(parts[0], parts[1], k)
    y = CycRat(parts[2], parts[3], k)
    if not y:
        return
    assert (x * y) / y == x


# -- the integer representation against pair arithmetic --------------------
#
# An independent model: a + b*zeta as a pair of Fractions, multiplied by
# the rules zeta^2 = -1 (k = 4) and zeta^2 = zeta - 1 (k = 6).


def _pmul(x, y, k):
    a, b = x
    c, d = y
    if k == 4:
        return (a * c - b * d, a * d + b * c)
    return (a * c - b * d, a * d + b * c + b * d)


def _pconj(x, k):
    a, b = x
    return (a, -b) if k == 4 else (a + b, -b)


def _pnorm(x, k):
    a, b = x
    return a * a + b * b if k == 4 else a * a + a * b + b * b


def _parts(x):
    return (x.a, x.b)


@both_rings
@given(parts=st.tuples(*(rationals,) * 4))
def test_arithmetic_matches_pair_model(k, parts):
    px, py = parts[:2], parts[2:]
    x, y = CycRat(*px, k), CycRat(*py, k)
    assert _parts(x) == px
    assert _parts(x + y) == (px[0] + py[0], px[1] + py[1])
    assert _parts(x - y) == (px[0] - py[0], px[1] - py[1])
    assert _parts(-x) == (-px[0], -px[1])
    assert _parts(x * y) == _pmul(px, py, k)
    assert _parts(x.conjugate()) == _pconj(px, k)
    assert x.norm() == _pnorm(px, k)
    assert x.trace() == 2 * px[0] + (px[1] if k == 6 else 0)
    if y:
        n = _pnorm(py, k)
        num = _pmul(px, _pconj(py, k), k)
        assert _parts(x / y) == (num[0] / n, num[1] / n)
        assert _parts(y.inverse()) == tuple(c / n for c in _pconj(py, k))


@both_rings
@given(parts=st.tuples(*(rationals,) * 4))
def test_equal_values_are_equal_and_hash_equal(k, parts):
    x = CycRat(parts[0], parts[1], k)
    y = CycRat(parts[2], parts[3], k)
    # the same value reached through arithmetic with other denominators
    for z in (x + y - y, x * 3 / 3, (x * y) / y if y else x):
        assert z == x and hash(z) == hash(x)
    assert (x == y) == (_parts(x) == _parts(y))


def test_unreduced_parts_are_the_same_value():
    x = CycRat(Fraction(2, 4), 1, 6)
    y = CycRat(Fraction(1, 2), 1, 6)
    assert x == y and hash(x) == hash(y)
    assert CycRat(Fraction(6, 4), Fraction(3, 6), 4) == CycRat(Fraction(3, 2), Fraction(1, 2), 4)


@both_rings
@given(a=rationals, b=rationals)
def test_parts_are_fractions(k, a, b):
    for x in (CycRat(a, b, k), CycRat(int(a), int(b), k), CycRat(a, b, k) * 2):
        assert type(x.a) is Fraction and type(x.b) is Fraction
    assert CycRat(a, b, k).a == a and CycRat(a, b, k).b == b


@both_rings
@given(a=rationals)
def test_rationals_equal_across_rings(k, a):
    other = 10 - k
    assert CycRat(a, 0, k) == CycRat(a, 0, other) == a
    assert hash(CycRat(a, 0, k)) == hash(CycRat(a, 0, other)) == hash(a)
    assert hash(CycRat(3, 0, k)) == hash(Fraction(3)) == hash(3)
    assert CycRat(a, 1, k) != CycRat(a, 1, other)


@both_rings
@given(a=rationals, b=rationals)
def test_is_integral_iff_both_parts_are_integers(k, a, b):
    x = CycRat(a, b, k)
    assert x.is_integral() == (a.denominator == 1 and b.denominator == 1)


def test_ring_operations_build_no_fraction(monkeypatch):
    import arrangekit.cyclo as cyclo_module

    x = CycRat(Fraction(3, 4), Fraction(-5, 6), 6)
    y = CycRat(Fraction(1, 2), 7, 6)
    w = CycRat(2, -1, 4)

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cyclo_module, "Fraction", NoFraction)
    for z in (x, y):
        z + y, z - y, z * y, z / y, z.inverse(), z.conjugate(), -z, bool(z)
    w + w, w * w, w / w, w.inverse(), w.conjugate(), hash(w), w == x, w.is_integral()
    euclid_gcd(w, CycRat(3, 1, 4))


def test_units_tables():
    assert [str(u) for u in units(4)] == ["1", "z", "-1", "-z"]
    assert [str(u) for u in units(6)] == ["1", "z", "-1 + z", "-1", "-z", "1 - z"]
    assert all(u.norm() == 1 for u in units(6))


# -- numeric embedding ------------------------------------------------------


def test_embedding_values():
    v, bound = to_complex(zeta(6))
    assert abs(v - complex(0.5, 0.8660254037844386)) < 1e-15
    assert bound <= 2.0 ** (-52) * 1.0000001
    v, bound = to_complex(CycRat(0, 0, 4))
    assert v == 0 and bound == 0
    v, _ = to_complex(cyc(1, 1, 4))
    assert v == complex(1, 1)


def test_embedding_is_correctly_rounded():
    # both parts are the doubles nearest the exact values, here computed
    # independently in 60-digit decimal arithmetic
    for a, b in [(Fraction(1, 3), Fraction(10, 7)), (Fraction(-5, 11), Fraction(3, 13))]:
        v, bound = to_complex(cyc(a, b, 6))
        with localcontext() as ctx:
            ctx.prec = 60
            re = Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / (2 * b.denominator)
            im = Decimal(b.numerator) * Decimal(3).sqrt() / (2 * b.denominator)
        assert v == complex(float(re), float(im))
        assert bound == 2.0 ** -52 * abs(v)
        assert to_complex(cyc(a, b, 4))[0] == complex(float(a), float(b))
    # the embedding has no precision knob: a double is all it returns
    with pytest.raises(TypeError):
        to_complex(zeta(6), 96)


def test_embed_shortcut_matches():
    x = cyc(Fraction(-3, 2), Fraction(5, 4), 6)
    assert embed(x) == to_complex(x)[0]


# -- text and JSON forms ----------------------------------------------------


def test_format_examples():
    assert format_cycrat(CycRat(0, 0, 6)) == "0"
    assert format_cycrat(cyc(1, 1, 4)) == "1 + z"
    assert format_cycrat(cyc(0, -1, 6)) == "-z"
    assert format_cycrat(CycRat(Fraction(1, 2), Fraction(-3, 4), 6)) == "1/2 - 3/4*z"


@both_rings
@given(a=rationals, b=rationals)
def test_parse_round_trip(k, a, b):
    x = CycRat(a, b, k)
    assert parse_cycrat(format_cycrat(x), k) == x


def test_parse_examples():
    assert parse_cycrat("2", 4) == CycRat(2, 0, 4)
    assert parse_cycrat("-1 + z", 6) == CycRat(-1, 1, 6)
    assert parse_cycrat("3/2*z", 6) == CycRat(0, Fraction(3, 2), 6)


@both_rings
@given(a=rationals, b=rationals)
def test_json_round_trip(k, a, b):
    x = CycRat(a, b, k)
    assert cyc_from_json(cyc_to_json(x), k) == x


def test_json_compact_forms():
    assert cyc_from_json("5/3", 6) == CycRat(Fraction(5, 3), 0, 6)
    assert cyc_from_json(7, 4) == CycRat(7, 0, 4)
    assert cyc_to_json(CycRat(2, 0, 4)) == {"a": "2", "b": "0"}


# -- O_k arithmetic helpers -------------------------------------------------


def test_nearest_integral():
    assert nearest_integral(CycRat(Fraction(5, 3), Fraction(-1, 3), 4)) == cyc(2, 0, 4)
    assert nearest_integral(cyc(1, 1, 6)) == cyc(1, 1, 6)


def test_euclid_gcd_divides():
    x = cyc(4, 2, 4)
    y = cyc(2, 0, 4)
    g = euclid_gcd(x, y)
    assert (x / g).is_integral() and (y / g).is_integral()
    # 1+zeta4 is the ramified prime above 2
    g2 = euclid_gcd(cyc(1, 1, 4), cyc(2, 0, 4))
    assert g2.norm() == 2


def test_vector_content_and_units():
    v = (cyc(2, 0, 6), cyc(0, 4, 6))
    g = vector_content(v)
    assert g.norm() == 4
    assert is_unit(vector_content((cyc(1, 0, 6), cyc(3, 0, 6))))
    assert not is_unit(cyc(1, 1, 4))


def test_unit_canonical_is_orbit_invariant():
    v = (cyc(0, 1, 6), cyc(-1, 0, 6))
    reps = {unit_canonical(tuple(u * c for c in v)) for u in units(6)}
    assert len(reps) == 1


@both_rings
@given(parts=st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4))
def test_unit_canonical_is_the_first_minimal_unit_multiple(k, parts):
    vec = tuple(CycRat(a, b, k) for a, b in parts)
    multiples = [tuple(u * c for c in vec) for u in units(k)]
    keys = [tuple((c.a, c.b) for c in m) for m in multiples]
    assert unit_canonical(vec) == multiples[keys.index(min(keys))]


def test_scalar_key_is_lexicographic_on_parts():
    assert scalar_key(CycRat(1, 0, 4)) == (Fraction(1), Fraction(0))
    assert sorted([zeta(4), CycRat(1, 0, 4)], key=scalar_key)[0] == zeta(4)
