"""Tiny arithmetic expression language for boundary data in config files.

Grammar: numeric literals, one free variable, ``pi``, the functions
``cos sin exp log abs sqrt``, arithmetic ``+ - * /`` and powers written
either ``^`` or ``**``, with Python's precedence: a power binds tighter
than a sign on its left and groups to the right.  The text compiles to a
postfix program that one loop runs.  Chains of ``+ -``, of ``* /`` and of
signs are read by loops and run left to right, so their length is not
limited; parentheses, function arguments and exponents may nest
MAX_DEPTH deep.  Anything outside the grammar, or nested deeper, raises
ConfigurationError naming the offending token.  Compiled callables are
numpy-vectorized.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

import numpy as np

from .errors import ConfigurationError

_FUNCS = {
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "**": operator.pow}

MAX_DEPTH = 100  # nested parentheses, function arguments and exponents

# a number, a name or an operator, after optional white space
_TOKEN = re.compile(r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_]\w*)|(\*\*|[-+*/^(),]))")


def _quote(text: str) -> str:
    """repr of text, cut to its first 60 characters."""
    return repr(text) if len(text) <= 60 else repr(text[:60]) + "..."


def _tokens(text: str) -> list[tuple[str, str]]:
    """(kind, token) pairs, kind "num", "name" or "op"; ^ reads as **."""
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ConfigurationError(f"cannot parse expression {_quote(text)}: "
                                     f"unexpected {text[pos:].lstrip()[:1]!r}")
        num, name, op = m.groups()
        out.append(("num", num) if num else ("name", name) if name
                   else ("op", "**" if op == "^" else op))
        pos = m.end()
    return out


class _Compiler:
    """Recursive descent over the tokens into a postfix program of
    (arity, fn) steps: arity 0 pushes fn(x), 1 applies fn to the top of
    the stack, 2 to the two topmost values."""

    def __init__(self, text: str, var: str):
        self.text = text
        self.toks = _tokens(text)
        self.i = 0
        self.depth = 0
        self.var = var
        self.names = {var, "t"} if var == "theta" else {var}
        self.code: list[tuple[int, Callable]] = []

    def fail(self, what: str):
        raise ConfigurationError(
            f"cannot parse expression {_quote(self.text)}: {what}")

    def peek(self) -> str | None:
        return self.toks[self.i][1] if self.i < len(self.toks) else None

    def take(self) -> tuple[str, str]:
        if self.i == len(self.toks):
            self.fail("unexpected end")
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok: str):
        if self.take()[1] != tok:
            self.fail(f"unexpected {self.toks[self.i - 1][1]!r}, "
                      f"expected {tok!r}")

    def nested(self, parse):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ConfigurationError(
                f"expression nests deeper than {MAX_DEPTH} levels")
        parse()
        self.depth -= 1

    def program(self) -> list[tuple[int, Callable]]:
        self.sum()
        if self.i < len(self.toks):
            self.fail(f"unexpected {self.peek()!r}")
        return self.code

    def chain(self, ops, operand):
        operand()
        while self.peek() in ops:
            op = self.take()[1]
            operand()
            self.code.append((2, _BINARY[op]))

    def sum(self):
        self.chain(("+", "-"), self.term)

    def term(self):
        self.chain(("*", "/"), self.factor)

    def factor(self):
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take()[1] == "-"
        self.primary()
        if self.peek() == "**":
            self.take()
            self.nested(self.factor)
            self.code.append((2, operator.pow))
        if negate:
            self.code.append((1, operator.neg))

    def primary(self):
        kind, tok = self.take()
        if kind == "num":
            val = float(tok)
            self.code.append((0, lambda x: val))
        elif kind == "name" and self.peek() == "(":
            if tok not in _FUNCS:
                raise ConfigurationError(
                    f"unknown function {tok!r}; allowed: {sorted(_FUNCS)}")
            self.take()
            one_argument = ConfigurationError(
                f"function {tok!r} takes exactly one argument")
            if self.peek() == ")":
                raise one_argument
            self.nested(self.sum)
            if self.peek() == ",":
                raise one_argument
            self.expect(")")
            self.code.append((1, _FUNCS[tok]))
        elif kind == "name":
            if tok in self.names:
                self.code.append((0, lambda x: x))
            elif tok == "pi":
                self.code.append((0, lambda x: np.pi))
            else:
                raise ConfigurationError(f"unknown name {tok!r} in "
                                         f"expression (variable is {self.var!r})")
        elif tok == "(":
            self.nested(self.sum)
            self.expect(")")
        else:
            self.fail(f"unexpected {tok!r}")


def _run(code: list[tuple[int, Callable]], x):
    stack = []
    for arity, fn in code:
        if arity == 0:
            stack.append(fn(x))
        elif arity == 1:
            stack[-1] = fn(stack[-1])
        else:
            right = stack.pop()
            stack[-1] = fn(stack[-1], right)
    return stack[0]


def parse_expression(text: str, var: str = "theta") -> Callable:
    """Compile ``text`` into a vectorized callable of one variable.

    ``theta`` may also be spelled ``t`` or the given ``var`` name; the
    variable of a radius expression is conventionally ``a``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError(f"expression must be a nonempty string, got {text!r}")
    code = _Compiler(text.strip(), var).program()

    def call(x):
        out = _run(code, np.asarray(x, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
            if np.ndim(out) == 0 and np.ndim(x) > 0 else out

    call.source = text  # type: ignore[attr-defined]
    return call
