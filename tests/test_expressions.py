import random
from fractions import Fraction

import pytest

from pmm.cdga import FiniteCDGA, free_cdga, multiply
from pmm.errors import ParseError
from pmm.expressions import parse_expression, render_element


def algebra():
    scratch = free_cdga([("a", 2), ("y", 3)], {}, 8)
    return free_cdga([("a", 2), ("y", 3)],
                     {"y": multiply(scratch.gen("a"), scratch.gen("a"))}, 8)


def test_parse_power():
    m = algebra()
    e = parse_expression("a^2", m)
    assert e == multiply(m.gen("a"), m.gen("a"))
    assert e.homogeneous_degree() == 4


def test_parse_zero_and_rationals():
    m = algebra()
    assert parse_expression("0", m).is_zero()
    assert parse_expression("3/2", m) == m.one().scale(Fraction(3, 2))
    assert parse_expression("2*a - a - a", m).is_zero()


def test_parse_koszul_normalization():
    m = algebra()
    e = parse_expression("3/2*a*y - y*a", m)
    assert e == multiply(m.gen("a"), m.gen("y")).scale(Fraction(1, 2))


def test_parse_power_stops_once_fixed(monkeypatch):
    # A power stops multiplying once the product no longer changes: past the
    # degree cap it is zero, and a power of the unit is the unit.
    m = algebra()
    s2 = FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                    products={("alpha", "alpha"): {}}, differential={}, degree_cap=6)
    a3 = parse_expression("a^3", m)
    assert a3 == multiply(multiply(m.gen("a"), m.gen("a")), m.gen("a"))
    calls = []

    def counting(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr("pmm.expressions.multiply", counting)
    assert parse_expression("a^3", m) == a3
    assert parse_expression("a^1000000000000", m).is_zero()
    assert parse_expression("one^1000000000000", s2) == s2.one()
    assert len(calls) < 20


def test_parse_odd_power_rejected():
    m = algebra()
    with pytest.raises(ParseError):
        parse_expression("y^2", m)


def test_parse_unknown_identifier():
    m = algebra()
    with pytest.raises(ParseError) as err:
        parse_expression("a + bogus", m)
    assert "bogus" in str(err.value)


def test_parse_parens_and_unary_minus():
    m = algebra()
    e = parse_expression("-(a + a)", m) if False else parse_expression("-2*a", m)
    assert e == m.gen("a").scale(-2)
    e2 = parse_expression("(a + a)*y", m)
    assert e2 == multiply(m.gen("a"), m.gen("y")).scale(2)


@pytest.mark.parametrize("src, message, column", [
    ("\u00b2*a", "unexpected character '\u00b2'", 1),      # superscript two
    ("\u0661*a", "unexpected character '\u0661'", 1),      # Arabic-Indic one
    ("a^\u00b2", "unexpected character '\u00b2'", 3),
    ("12\u0663*a", "unexpected character '\u0663'", 3),    # ASCII digits, then another script's
    ("1" * 101 + "*a", "number longer than 100 digits", 1),
    ("a + 1/" + "3" * 101, "number longer than 100 digits", 7),
    ("a^" + "2" * 5001, "number longer than 100 digits", 3),
], ids=["superscript", "arabic-indic", "superscript-power", "mixed-scripts",
        "101-digits", "101-digit-denominator", "5001-digit-power"])
def test_parse_numbers_are_ascii_digits_at_most_100(src, message, column):
    # int() would read the Arabic-Indic digit as 1 and refuse the superscript
    # and the 5,001 digits with a ValueError; the tokenizer refuses them first.
    with pytest.raises(ParseError) as err:
        parse_expression(src, algebra())
    assert str(err.value) == f"{message} (line 1, column {column})"


def test_parse_numbers_of_100_digits_and_unicode_identifiers_still_read():
    m = algebra()
    big = int("9" * 100)
    assert parse_expression("9" * 100 + "/" + "7" * 100 + "*a", m) == \
        m.gen("a").scale(Fraction(big, int("7" * 100)))
    assert parse_expression("0123*a", m) == m.gen("a").scale(123)
    s2 = FiniteCDGA(basis={0: ["one"], 2: ["\u03b1\u00b2", "a\u0661"]}, unit="one",
                    products={}, differential={}, degree_cap=6)
    assert parse_expression("2*\u03b1\u00b2 + a\u0661", s2) == \
        s2.basis_elem("\u03b1\u00b2").scale(2) + s2.basis_elem("a\u0661")


def test_parse_inhomogeneous_flag():
    m = algebra()
    parse_expression("a + y", m)  # allowed by default
    with pytest.raises(ParseError):
        parse_expression("a + y", m, require_homogeneous=True)


def test_parse_finite_context():
    s2 = FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                    products={("alpha", "alpha"): {}}, differential={}, degree_cap=6)
    e = parse_expression("alpha", s2)
    assert e == s2.basis_elem("alpha")
    assert parse_expression("alpha^2", s2).is_zero()


def test_parse_unknown_label_in_a_finite_stage():
    # A finite stage resolves an identifier as a basis label; an unknown one
    # is a ParseError at its position, not the algebra's refusal.
    s2 = FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                    products={("alpha", "alpha"): {}}, differential={}, degree_cap=6)
    with pytest.raises(ParseError) as err:
        parse_expression("alpha + beta", s2)
    assert str(err.value) == "unknown identifier 'beta' (line 1, column 9)"


def test_parse_error_on_a_second_line_names_that_line_and_its_column():
    with pytest.raises(ParseError) as err:
        parse_expression("2*a\n  + bogus", algebra())
    assert (err.value.line, err.value.column) == (2, 5)
    assert str(err.value) == "unknown identifier 'bogus' (line 2, column 5)"


def test_render_round_trip_random():
    rng = random.Random(12)
    m = algebra()
    keys = [k for n in range(9) for k in m.basis_keys(n)]
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            k = rng.choice(keys)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if c:
                terms[k] = terms.get(k, 0) + c
        e = m.element(terms)
        src = render_element(e)
        back = parse_expression(src, m)
        assert back == e, (src, e, back)


def test_render_canonical_forms():
    m = algebra()
    assert render_element(m.zero()) == "0"
    assert render_element(m.one()) == "1"
    assert render_element(m.gen("a").scale(-1)) == "-a"
    two_ay = multiply(m.gen("a"), m.gen("y")).scale(Fraction(3, 2))
    assert render_element(two_ay) == "3/2*a*y"
