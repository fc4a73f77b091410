"""Expression grammar for algebraic input files and presentation rendering.

    expr     := ['-'] term (('+'|'-') term)*
    term     := [rational '*']? factor ('*' factor)*
    factor   := IDENT ('^' NAT)? | '(' expr ')' | rational
    rational := NAT ['/' NAT]
    NAT      := ASCII digits 0-9, at most 100 of them

Identifiers resolve against a context algebra: generator names of a free
CDGA or basis labels of a finite one.  Rendering is deterministic (terms in
basis order, exact rational coefficients) and round-trips through the
parser.
"""
from __future__ import annotations

from fractions import Fraction

from .cdga import Algebra, CdgaElement, FreeCDGA, multiply
from .errors import ParseError, ValidationError

MAX_NESTING = 100  # parenthesis depth; three parser frames per level, far below the limit
MAX_DIGITS = 100  # digits in one number, as io._rational bounds a number's text


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if "0" <= c <= "9":  # ASCII only: int() would read other scripts' digits too
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"number longer than {MAX_DIGITS} digits", line, col)
            out.append(_Token("NAT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(_Token("IDENT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "+-*/^()":
            out.append(_Token(c, c, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(_Token("END", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], algebra: Algebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value!r}",
                             tok.line, tok.column)
        self.pos += 1
        return tok

    def parse(self) -> CdgaElement:
        out = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.value!r}",
                             tok.line, tok.column)
        return out

    def expr(self) -> CdgaElement:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = acc.scale(-1)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> CdgaElement:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = multiply(acc, self.factor())
        return acc

    def factor(self) -> CdgaElement:
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.column)
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.take(")")
            return inner
        if tok.kind == "NAT":
            return self.algebra.one().scale(self.rational())
        if tok.kind == "IDENT":
            self.take()
            base = self._resolve(tok)
            if self.peek().kind == "^":
                self.take()
                exp_tok = self.take("NAT")
                exp = int(exp_tok.value)
                self._check_power(tok, exp)
                acc = self.algebra.one()
                for _ in range(exp):
                    acc, last = multiply(acc, base), acc
                    if acc == last:  # fixed: zero past the degree cap, or the unit
                        break
                return acc
            return base
        raise ParseError(f"expected a factor, found {tok.value!r}",
                         tok.line, tok.column)

    def rational(self) -> Fraction:
        num = int(self.take("NAT").value)
        if self.peek().kind == "/":
            self.take()
            den_tok = self.take("NAT")
            den = int(den_tok.value)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.column)
            return Fraction(num, den)
        return Fraction(num)

    def _resolve(self, tok: _Token) -> CdgaElement:
        alg = self.algebra
        if isinstance(alg, FreeCDGA):
            if tok.value in alg.index_of:
                return alg.gen(tok.value)
        else:
            try:
                return alg.basis_elem(tok.value)
            except ValidationError:
                pass
        raise ParseError(f"unknown identifier {tok.value!r}", tok.line, tok.column)

    def _check_power(self, tok: _Token, exp: int):
        alg = self.algebra
        if isinstance(alg, FreeCDGA) and exp >= 2:
            gen = alg.generators[alg.index_of[tok.value]]
            if gen.degree % 2 == 1:
                raise ParseError(
                    f"odd generator {tok.value!r} raised to power {exp}",
                    tok.line, tok.column)


def parse_expression(src: str, context: Algebra,
                     require_homogeneous: bool = False) -> CdgaElement:
    """Parse against a context algebra; normalization applies Koszul signs."""
    elem = _Parser(_tokenize(src), context).parse()
    if require_homogeneous:
        degs = {context.key_degree(k) for k in elem.terms}
        if len(degs) > 1:
            raise ParseError(f"expression is not homogeneous: degrees {sorted(degs)}")
    return elem


def render_element(elem: CdgaElement) -> str:
    """Canonical source form: terms in (degree, basis position) order."""
    alg = elem.algebra
    if not elem.terms:
        return "0"
    keyed = sorted(elem.terms.items(),
                   key=lambda kv: (alg.key_degree(kv[0]),
                                   alg.key_position(alg.key_degree(kv[0]), kv[0])))
    parts = []
    for i, (key, c) in enumerate(keyed):
        mono = alg.key_repr(key)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
