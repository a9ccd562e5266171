"""Affine expressions and maps.

A small but faithful model of MLIR's affine machinery: expressions over
dimensions (``d0``, ``d1``, ...) and symbols (``s0``, ...) combined with
``+``, ``*``, ``floordiv``, ``ceildiv`` and ``mod``; and affine maps
``(dims)[symbols] -> (results)``. Used by the ``affine`` dialect
(``affine.apply``/``affine.min``) and by ``expand-strided-metadata``
when externalizing memref address computations (case study 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class AffineExpr:
    """Base class of affine expressions."""

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other: "ExprLike") -> "AffineExpr":
        return _simplify_add(self, to_expr(other))

    def __radd__(self, other: "ExprLike") -> "AffineExpr":
        return to_expr(other) + self

    def __mul__(self, other: "ExprLike") -> "AffineExpr":
        return _simplify_mul(self, to_expr(other))

    def __rmul__(self, other: "ExprLike") -> "AffineExpr":
        return to_expr(other) * self

    def __sub__(self, other: "ExprLike") -> "AffineExpr":
        return self + to_expr(other) * -1

    def __neg__(self) -> "AffineExpr":
        return self * -1

    def floordiv(self, other: "ExprLike") -> "AffineExpr":
        rhs = to_expr(other)
        if isinstance(self, AffineConstant) and isinstance(rhs, AffineConstant):
            return AffineConstant(self.value // rhs.value)
        if isinstance(rhs, AffineConstant) and rhs.value == 1:
            return self
        return AffineBinary("floordiv", self, rhs)

    def ceildiv(self, other: "ExprLike") -> "AffineExpr":
        rhs = to_expr(other)
        if isinstance(self, AffineConstant) and isinstance(rhs, AffineConstant):
            return AffineConstant(-(-self.value // rhs.value))
        if isinstance(rhs, AffineConstant) and rhs.value == 1:
            return self
        return AffineBinary("ceildiv", self, rhs)

    def __mod__(self, other: "ExprLike") -> "AffineExpr":
        rhs = to_expr(other)
        if isinstance(self, AffineConstant) and isinstance(rhs, AffineConstant):
            return AffineConstant(self.value % rhs.value)
        return AffineBinary("mod", self, rhs)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, dims: Sequence[int], symbols: Sequence[int] = ()) -> int:
        raise NotImplementedError

    def replace(self, dim_repl: Sequence["AffineExpr"],
                sym_repl: Sequence["AffineExpr"] = ()) -> "AffineExpr":
        raise NotImplementedError


ExprLike = object  # AffineExpr | int


def to_expr(value: ExprLike) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return AffineConstant(value)
    raise TypeError(f"not an affine expression: {value!r}")


@dataclass(frozen=True)
class AffineDim(AffineExpr):
    position: int

    def evaluate(self, dims, symbols=()):
        return dims[self.position]

    def replace(self, dim_repl, sym_repl=()):
        return dim_repl[self.position]

    def __str__(self) -> str:
        return f"d{self.position}"


@dataclass(frozen=True)
class AffineSymbol(AffineExpr):
    position: int

    def evaluate(self, dims, symbols=()):
        return symbols[self.position]

    def replace(self, dim_repl, sym_repl=()):
        if self.position < len(sym_repl):
            return sym_repl[self.position]
        return self

    def __str__(self) -> str:
        return f"s{self.position}"


@dataclass(frozen=True)
class AffineConstant(AffineExpr):
    value: int

    def evaluate(self, dims, symbols=()):
        return self.value

    def replace(self, dim_repl, sym_repl=()):
        return self

    def __str__(self) -> str:
        return str(self.value)


_EVALUATORS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "floordiv": lambda a, b: a // b,
    "ceildiv": lambda a, b: -(-a // b),
    "mod": lambda a, b: a % b,
}

_PRINTERS = {
    "add": "+",
    "mul": "*",
    "floordiv": "floordiv",
    "ceildiv": "ceildiv",
    "mod": "mod",
}


@dataclass(frozen=True)
class AffineBinary(AffineExpr):
    kind: str  # one of add/mul/floordiv/ceildiv/mod
    lhs: AffineExpr
    rhs: AffineExpr

    def evaluate(self, dims, symbols=()):
        return _EVALUATORS[self.kind](
            self.lhs.evaluate(dims, symbols), self.rhs.evaluate(dims, symbols)
        )

    def replace(self, dim_repl, sym_repl=()):
        lhs = self.lhs.replace(dim_repl, sym_repl)
        rhs = self.rhs.replace(dim_repl, sym_repl)
        if self.kind == "add":
            return lhs + rhs
        if self.kind == "mul":
            return lhs * rhs
        if self.kind == "floordiv":
            return lhs.floordiv(rhs)
        if self.kind == "ceildiv":
            return lhs.ceildiv(rhs)
        return lhs % rhs

    def __str__(self) -> str:
        return f"({self.lhs} {_PRINTERS[self.kind]} {self.rhs})"


def _simplify_add(lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    if isinstance(lhs, AffineConstant) and isinstance(rhs, AffineConstant):
        return AffineConstant(lhs.value + rhs.value)
    if isinstance(lhs, AffineConstant) and lhs.value == 0:
        return rhs
    if isinstance(rhs, AffineConstant) and rhs.value == 0:
        return lhs
    return AffineBinary("add", lhs, rhs)


def _simplify_mul(lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    if isinstance(lhs, AffineConstant) and isinstance(rhs, AffineConstant):
        return AffineConstant(lhs.value * rhs.value)
    if isinstance(lhs, AffineConstant) and lhs.value == 1:
        return rhs
    if isinstance(rhs, AffineConstant) and rhs.value == 1:
        return lhs
    if isinstance(lhs, AffineConstant) and lhs.value == 0:
        return lhs
    if isinstance(rhs, AffineConstant) and rhs.value == 0:
        return rhs
    return AffineBinary("mul", lhs, rhs)


# Convenience factories --------------------------------------------------------


def dim(position: int) -> AffineDim:
    return AffineDim(position)


def symbol(position: int) -> AffineSymbol:
    return AffineSymbol(position)


def constant(value: int) -> AffineConstant:
    return AffineConstant(value)


@dataclass(frozen=True)
class AffineMap:
    """An affine map ``(d...)[s...] -> (results...)``."""

    num_dims: int
    num_symbols: int
    results: Tuple[AffineExpr, ...]

    @property
    def num_results(self) -> int:
        return len(self.results)

    def evaluate(self, dims: Sequence[int],
                 symbols: Sequence[int] = ()) -> List[int]:
        if len(dims) != self.num_dims or len(symbols) != self.num_symbols:
            raise ValueError(
                f"map expects {self.num_dims} dims / {self.num_symbols} "
                f"symbols, got {len(dims)} / {len(symbols)}"
            )
        return [r.evaluate(dims, symbols) for r in self.results]

    def __str__(self) -> str:
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        syms = ", ".join(f"s{i}" for i in range(self.num_symbols))
        results = ", ".join(str(r) for r in self.results)
        sym_part = f"[{syms}]" if self.num_symbols else ""
        return f"({dims}){sym_part} -> ({results})"
