"""Expression grammar, canonical printer and the tower-definition file format.

Grammar (left associative, '^' tightest, integer exponents, unary minus):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := integer | name | '(' expr ')'

Printing is the inverse: terms in descending deglex order, variables in
declaration order inside each monomial, single spaces around binary + and -,
none around '^'.  parse(print(u)) == u structurally.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import ExprSyntaxError, TowerFileError, UnknownSymbol
from .ratfun import MPoly, RatFun
from .tower import BASE_VAR, SubfieldSpec, Tower, tower_from_pairs

# deeper parentheses are refused before the recursive descent overflows
_MAX_NESTING = 100
# a power of a larger degree is refused before it is expanded
_MAX_DEGREE = 1000
# a longer integer literal is refused before int() (Python stops at 4300)
_MAX_DIGITS = 1000
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError("unexpected character",
                                  position=pos, expected="token")
        number, name, op = m.groups()
        if number is not None:
            tokens.append(("num", number, m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Tuple[str, ...]):
        self.text = text
        self.vars = variables
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def integer(self, digits: str, pos: int) -> int:
        if len(digits) > _MAX_DIGITS:
            raise ExprSyntaxError(
                f"integer of {len(digits)} digits exceeds {_MAX_DIGITS}",
                position=pos, expected=f"at most {_MAX_DIGITS} digits")
        return int(digits)

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", position=pos, expected=op)
        return self.take()

    def parse(self) -> RatFun:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", position=pos,
                                  expected="end of input")
        return value

    def expr(self) -> RatFun:
        kind, value, _ = self.peek()
        negate = kind == "op" and value == "-"
        if negate:
            self.take()
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def term(self) -> RatFun:
        acc = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.factor()
                acc = acc * rhs if value == "*" else acc / rhs
            else:
                return acc

    def factor(self) -> RatFun:
        acc = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            sign = 1
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                self.take()
                sign = -1
            kind, value, pos = self.peek()
            if kind != "num":
                raise ExprSyntaxError("expected integer exponent",
                                      position=pos, expected="integer")
            self.take()
            k = sign * self.integer(value, pos)
            degree = max(1, acc.num.total_degree(), acc.den.total_degree())
            if abs(k) * degree > _MAX_DEGREE:
                raise ExprSyntaxError(
                    f"power of degree {abs(k) * degree} exceeds {_MAX_DEGREE}",
                    position=pos, expected=f"degree at most {_MAX_DEGREE}")
            acc = acc ** k
        return acc

    def base(self) -> RatFun:
        kind, value, pos = self.take()
        if kind == "num":
            return RatFun.const(self.vars, self.integer(value, pos))
        if kind == "name":
            if value not in self.vars:
                raise UnknownSymbol(f"unknown symbol {value!r} at {pos}")
            return RatFun.var(self.vars, value)
        if kind == "op" and value == "(":
            if self.depth == _MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {_MAX_NESTING}",
                    position=pos, expected="fewer parentheses")
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ExprSyntaxError("expected a value", position=pos,
                              expected="number, name or '('")


def parse_expr(text: str, context) -> RatFun:
    """Parse over a Tower or an explicit variable tuple."""
    variables = context.vars if isinstance(context, Tower) else tuple(context)
    return _Parser(text, variables).parse()


# -- canonical printing ---------------------------------------------------------

def format_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _format_monomial(variables, exp) -> str:
    parts = []
    for name, k in zip(variables, exp):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def format_mpoly(p: MPoly) -> str:
    if p.is_zero():
        return "0"
    out = []
    for exp, c in p.sorted_terms():
        mono = _format_monomial(p.vars, exp)
        mag = abs(c)
        if not mono:
            body = format_fraction(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_fraction(mag)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(out)


def format_ratfun(u: RatFun) -> str:
    num = format_mpoly(u.num)
    if u.den.is_const():
        return num
    if len(u.num.ints) > 1:
        num = f"({num})"
    den = format_mpoly(u.den)
    if len(u.den.ints) > 1 or len(u.den.used_indices()) > 1:
        den = f"({den})"
    return f"{num}/{den}"


# -- tower files -----------------------------------------------------------------

_GEN_LINE = re.compile(r"^gen\s+(\w+)\s*;\s*D\(\s*(\w+)\s*\)\s*=\s*(.+)$")
_SUBFIELD_LINE = re.compile(r"^subfield\s+(\w+)\s*=\s*\[(.*)\]\s*$")


def parse_tower_file(text: str):
    """Parse a tower definition; returns (Tower, {name: SubfieldSpec}).

    Format: a mandatory `base z` line, then `gen NAME ; D(NAME) = EXPR`
    lines in adjunction order, optional `subfield NAME = [expr, ...]`
    lines, `#` comments anywhere.
    """
    gen_lines: List[Tuple[int, str, str]] = []
    subfield_lines: List[Tuple[int, str, str]] = []
    saw_base = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_base:
            if line != f"base {BASE_VAR}":
                raise TowerFileError(
                    f"line {lineno}: expected 'base {BASE_VAR}' first")
            saw_base = True
            continue
        m = _GEN_LINE.match(line)
        if m:
            name, dname, expr = m.groups()
            if name != dname:
                raise TowerFileError(
                    f"line {lineno}: D({dname}) does not match gen {name}")
            gen_lines.append((lineno, name, expr))
            continue
        m = _SUBFIELD_LINE.match(line)
        if m:
            subfield_lines.append((lineno, m.group(1), m.group(2)))
            continue
        raise TowerFileError(f"line {lineno}: unrecognized line {line!r}")
    if not saw_base:
        raise TowerFileError(f"missing 'base {BASE_VAR}' line")
    names = tuple(name for _, name, _ in gen_lines)
    all_vars = (BASE_VAR,) + names
    pairs = []
    for lineno, name, expr_text in gen_lines:
        try:
            deriv = parse_expr(expr_text, all_vars)
        except ExprSyntaxError as e:
            raise TowerFileError(f"line {lineno}: {e}") from e
        pairs.append((name, deriv))
    tower = tower_from_pairs(pairs)
    subfields: Dict[str, SubfieldSpec] = {}
    for lineno, name, body in subfield_lines:
        if name in subfields:
            raise TowerFileError(f"line {lineno}: duplicate subfield {name!r}")
        exprs = []
        for chunk in _split_top_level(body):
            try:
                exprs.append(parse_expr(chunk, tower))
            except ExprSyntaxError as e:
                raise TowerFileError(f"line {lineno}: {e}") from e
        if not exprs:
            raise TowerFileError(f"line {lineno}: empty subfield {name!r}")
        subfields[name] = SubfieldSpec(generators=tuple(exprs))
    return tower, subfields


def _split_top_level(body: str) -> List[str]:
    out = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return [c.strip() for c in out if c.strip()]
