"""Core IR infrastructure: an MLIR-like SSA IR with regions.

This package provides the substrate on which the Transform dialect
(``repro.core``) is built: types, attributes, operations/blocks/regions
with use-def chains, builders, a verifier, textual printing/parsing,
affine expressions and diagnostics.
"""

from .affine import (
    AffineConstant,
    AffineDim,
    AffineExpr,
    AffineMap,
    AffineSymbol,
    constant as affine_constant,
    dim as affine_dim,
    symbol as affine_symbol,
)
from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseIntAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    attr,
    index_attr,
    unwrap,
)
from .builder import Builder, InsertionPoint
from .context import Context, SymbolTable, lookup_symbol, nearest_symbol_table
from .core import (
    Block,
    BlockArgument,
    Commutative,
    IsolatedFromAbove,
    IsTerminator,
    NoTerminator,
    OpOperand,
    OpResult,
    Operation,
    Pure,
    Region,
    SingleBlock,
    SymbolTableTrait,
    SymbolTrait,
    Trait,
    register_op,
)
from .diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    Severity,
)
from .location import (
    FileLineColLoc,
    Location,
    UNKNOWN_LOC,
    UnknownLoc,
)
from .hashing import attributes_digest, module_digest, op_digest
from .parser import ParseError, parse, register_type_parser
from .printer import print_op
from .types import (
    DYNAMIC,
    F16,
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I16,
    I32,
    I64,
    I8,
    INDEX,
    IndexType,
    IntegerType,
    LLVMPointerType,
    LLVMStructType,
    MemRefLayout,
    MemRefType,
    NONE,
    NoneType,
    OpaqueType,
    ShapedType,
    TensorType,
    Type,
    VectorType,
    memref,
    tensor,
    vector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
