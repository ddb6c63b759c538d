"""A small DML-style expression parser.

The paper's FuseME accepts queries written in SystemML's Declarative Machine
Learning language (Section 5).  This module parses the expression subset the
evaluation uses into :class:`~repro.lang.builder.Expr` trees::

    parse_expression(
        "U * (t(V) %*% X) / (t(V) %*% V %*% U)",
        {"X": x_expr, "U": u_expr, "V": v_expr},
    )

Grammar (operators in decreasing precedence)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := matmul ('^' NUMBER)?
    matmul   := unary ('%*%' unary)*
    unary    := '-' unary | atom
    atom     := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Supported functions: ``t`` (transpose), ``log``, ``exp``, ``sqrt``, ``abs``,
``sigmoid``, ``sum``, ``rowSums``, ``colSums``, ``min``/``max`` (unary
aggregation).
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from repro.errors import PlanError
from repro.lang.builder import Expr
from repro.lang.dag import AggNode, UnaryNode

_TOKEN = re.compile(
    r"\s*(?:(?P<matmul>%\*%)|(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)

_UNARY_FUNCTIONS = {
    "t": lambda x: x.T,
    "log": lambda x: Expr(UnaryNode("log", x.node)),
    "exp": lambda x: Expr(UnaryNode("exp", x.node)),
    "sqrt": lambda x: Expr(UnaryNode("sqrt", x.node)),
    "abs": lambda x: Expr(UnaryNode("abs", x.node)),
    "sigmoid": lambda x: Expr(UnaryNode("sigmoid", x.node)),
    "sum": lambda x: Expr(AggNode("sum", x.node)),
    "rowSums": lambda x: Expr(AggNode("rowSum", x.node)),
    "colSums": lambda x: Expr(AggNode("colSum", x.node)),
    "min": lambda x: Expr(AggNode("min", x.node)),
    "max": lambda x: Expr(AggNode("max", x.node)),
}

Value = Union[Expr, float]


class _Parser:
    def __init__(self, text: str, bindings: Mapping[str, Expr]):
        self.text = text
        self.bindings = bindings
        self.tokens = self._tokenize(text)
        self.position = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        index = 0
        while index < len(text):
            match = _TOKEN.match(text, index)
            if match is None or match.end() == index:
                remainder = text[index:].strip()
                if not remainder:
                    break
                raise PlanError(f"cannot tokenize {remainder[:20]!r}")
            token = match.group("matmul") or match.group("number") or \
                match.group("name") or match.group("op")
            if token is not None:
                tokens.append(token)
            index = match.end()
        return tokens

    # -- token helpers -----------------------------------------------------

    def peek(self) -> str | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise PlanError("unexpected end of expression")
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        got = self.advance()
        if got != token:
            raise PlanError(f"expected {token!r}, got {got!r}")

    # -- grammar --------------------------------------------------------------

    def parse(self) -> Expr:
        result = self.expr()
        if self.peek() is not None:
            raise PlanError(f"trailing tokens from {self.peek()!r}")
        if not isinstance(result, Expr):
            raise PlanError("expression reduces to a bare scalar")
        return result

    def expr(self) -> Value:
        left = self.term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            right = self.term()
            left = _apply(op, left, right)
        return left

    def term(self) -> Value:
        left = self.factor()
        while self.peek() in ("*", "/"):
            op = self.advance()
            right = self.factor()
            left = _apply(op, left, right)
        return left

    def factor(self) -> Value:
        base = self.matmul()
        if self.peek() == "^":
            self.advance()
            exponent = self.atom()
            if not isinstance(exponent, float):
                raise PlanError("exponent must be a number")
            if not isinstance(base, Expr):
                return float(base) ** exponent
            return base ** exponent
        return base

    def matmul(self) -> Value:
        left = self.unary()
        while self.peek() == "%*%":
            self.advance()
            right = self.unary()
            if not (isinstance(left, Expr) and isinstance(right, Expr)):
                raise PlanError("%*% needs matrix operands")
            left = left @ right
        return left

    def unary(self) -> Value:
        signs = 0
        while self.peek() == "-":
            self.advance()
            signs += 1
        value = self.atom()
        for _ in range(signs):
            value = -value
        return value

    def atom(self) -> Value:
        token = self.advance()
        if token == "(":
            value = self.expr()
            self.expect(")")
            return value
        if re.fullmatch(r"\d+\.?\d*(?:[eE][+-]?\d+)?", token):
            return float(token)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
            raise PlanError(f"unexpected token {token!r}")
        if self.peek() == "(":
            return self._call(token)
        binding = self.bindings.get(token)
        if binding is None:
            raise PlanError(f"unbound name {token!r}")
        return binding

    def _call(self, name: str) -> Value:
        fn = _UNARY_FUNCTIONS.get(name)
        if fn is None:
            raise PlanError(f"unknown function {name!r}")
        self.expect("(")
        argument = self.expr()
        self.expect(")")
        if not isinstance(argument, Expr):
            raise PlanError(f"{name}() needs a matrix argument")
        return fn(argument)


def _apply(op: str, left: Value, right: Value) -> Value:
    if isinstance(left, float) and isinstance(right, float):
        return {
            "+": left + right, "-": left - right,
            "*": left * right, "/": left / right,
        }[op]
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    return left / right


def parse_expression(text: str, bindings: Mapping[str, Expr]) -> Expr:
    """Parse a DML-style expression against named input expressions."""
    return _Parser(text, bindings).parse()
