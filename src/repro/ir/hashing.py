"""Content-addressed structural hashing for IR subtrees.

Every scale-sensitive service path — cache lookup, single-flight
dedup, per-function entry identity, byte-identity reassembly — used to
bottom out in :func:`repro.ir.printer.print_op` over an entire module:
O(module) string work per lookup. This module gives operations a
cheap structural identity instead: a SHA-256 digest computed
bottom-up over (op name, attributes, operand structure, result types,
successors, regions), memoized on the :class:`~repro.ir.core.
Operation` and invalidated through the mutation hooks in
:mod:`repro.ir.core` (an ancestor-chain walk that stops at the first
already-cleared memo, so never-hashed IR pays a single attribute
check per mutation).

The contract — property-tested over the fuzz corpus — is::

    op_digest(a) == op_digest(b)   =>   print_op(a) == print_op(b)

and any structural mutation of an op changes the digests of exactly
that op's ancestor chain.

Reference encoding
------------------

Printed SSA names are assigned in traversal order, so a digest that
guarantees print equality must capture *which* definition each use
refers to, positionally. Values defined inside the subtree being
hashed are encoded by their structural path (region index, block
index, defining-op index, result index — or block-argument index);
values defined outside it ("free" values, e.g. an operand of the
root) are encoded by first-occurrence index and reported upward in
the memo, where the parent re-encodes them against its own paths.
This keeps the memo compositional: a ``func.func`` keeps its digest
when it moves between modules, and a module digest is assembled from
its functions' memos without re-walking them. Successor blocks are
encoded through the same mechanism.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Dict, List, Sequence, Tuple

from .core import Block, DIGEST_STATS, Operation, Value

_PACK = struct.Struct(">I").pack

#: Domain-separation prefix; bump when the encoding changes so stale
#: digests can never collide with fresh ones across versions.
_DOMAIN = b"repro-op-digest-v1"


class _Packed(dict):
    """``prefix + _PACK(i)`` by ``i``: counts and indices are almost
    all small, so those are packed once; a large one is packed per
    read and not kept (nothing here grows with the IR a daemon sees)."""

    def __init__(self, prefix: bytes) -> None:
        super().__init__((i, prefix + _PACK(i)) for i in range(256))
        self.prefix = prefix

    def __missing__(self, i: int) -> bytes:
        return self.prefix + _PACK(i)


#: A count or an index; a reference to free value / free block #i.
_COUNT = _Packed(b"")
_FREE = _Packed(b"F")
_ZERO, _ONE = _COUNT[0], _COUNT[1]


def _text(text: str) -> bytes:
    """``text`` as it enters an op's encoding: length-prefixed."""
    data = text.encode()
    return _PACK(len(data)) + data


#: :func:`_text` of an op name, a type spelling or an attribute key:
#: short and few per program, on every op of it. Attribute *values*
#: (dense constants can be large) are never remembered.
_name = functools.lru_cache(maxsize=1024)(_text)


def _attributes(parts: List[bytes], attributes) -> None:
    """Append an attribute dictionary, in key order."""
    parts.append(_COUNT[len(attributes)])
    for key, attribute in sorted(attributes.items()):
        parts += (_name(key), _text(str(attribute)))


def _compute(op: Operation) -> Tuple[bytes, tuple, tuple]:
    """Digest of ``op``'s subtree plus its free values/blocks; memoized.

    The encoding of one op is built as a list of byte strings and
    hashed once (``_DOMAIN`` + concatenation): the bytes are what one
    ``update`` per field would feed the hash, at a fraction of the
    calls — tests/ir/test_hashing.py pins digests of fixed IR so the
    encoding cannot drift, and tests/ir/test_emission.py compares
    against the two-function encoder this one replaced.

    Per nested op the regions append the child's digest with the
    child's free references re-encoded against this level's paths —
    which is what binds "child uses free value #k" to an actual
    definition site. References this level cannot resolve either join
    its own free values/blocks."""
    memo = op._digest
    if memo is not None:
        DIGEST_STATS.hits += 1
        return memo, op._digest_free, op._digest_free_blocks
    DIGEST_STATS.recomputes += 1

    count, free, name = _COUNT, _FREE, _name
    parts = [_DOMAIN, name(op.name), count[len(op.results)]]
    for result in op.results:
        parts.append(name(str(result.type)))
    # The root's operands (and successors) are free by construction
    # (SSA: an op cannot use its own results, and its regions' values
    # are not visible as operands), and they are hashed before the
    # regions so free indices follow the printer's first-use order.
    operands = op._operands
    if not operands:
        free_values: List[Value] = []
        parts.append(_ZERO)
    elif len(operands) == 1:
        value = operands[0]._value
        free_values = [value]
        parts += (_ONE, free[0], name(str(value.type)))
    else:
        free_values = []
        seen: Dict[Value, bytes] = {}
        parts.append(count[len(operands)])
        for operand in operands:
            value = operand._value
            # A value used twice keeps the reference of its first use.
            reference = seen.get(value)
            if reference is None:
                reference = seen[value] = free[len(free_values)]
                free_values.append(value)
            parts += (reference, name(str(value.type)))
    free_blocks: List[Block] = []
    if op.successors:
        parts.append(count[len(op.successors)])
        for successor in op.successors:
            if successor not in free_blocks:
                free_blocks.append(successor)
            parts.append(free[free_blocks.index(successor)])
    else:
        parts.append(_ZERO)
    attributes = op.attributes
    if not attributes:
        parts.append(_ZERO)
    elif len(attributes) == 1:  # nothing to sort
        for key, attribute in attributes.items():
            parts += (_ONE, name(key), _text(str(attribute)))
    else:
        _attributes(parts, attributes)
    if not op.regions:  # leaf ops — most ops — stop here
        parts.append(_ZERO)
    else:
        parts.append(count[len(op.regions)])
        #: value or block -> its encoded reference, ``b"L" + path`` for
        #: what this op's regions define, ``b"F" + index`` for what
        #: they do not. Keyed by the objects (identity hash), all of
        #: them alive in the IR for as long as this call runs.
        values = {value: free[i] for i, value in enumerate(free_values)}
        blocks = {block: free[i] for i, block in enumerate(free_blocks)}
        for region_index, region in enumerate(op.regions):
            parts.append(count[len(region.blocks)])
            # Pre-register every block and block argument of the region
            # so forward references (a branch to a later block) encode
            # as local paths, not free indices.
            for block_index, block in enumerate(region.blocks):
                path = b"L" + count[region_index] + count[block_index]
                blocks[block] = path
                for arg_index, arg in enumerate(block.args):
                    values[arg] = path + b"a" + count[arg_index]
            for block in region.blocks:
                path = blocks[block] + b"r"
                parts.append(count[len(block.args)])
                for arg in block.args:
                    parts.append(name(str(arg.type)))
                parts.append(count[len(block.ops)])
                for op_index, child in enumerate(block.ops):
                    digest, child_values, child_blocks = _compute(child)
                    parts += (digest, count[len(child_values)])
                    for value in child_values:
                        reference = values.get(value)
                        if reference is None:
                            reference = values[value] = \
                                free[len(free_values)]
                            free_values.append(value)
                        parts.append(reference)
                    if child_blocks:
                        parts.append(count[len(child_blocks)])
                        for target in child_blocks:
                            reference = blocks.get(target)
                            if reference is None:
                                reference = blocks[target] = \
                                    free[len(free_blocks)]
                                free_blocks.append(target)
                            parts.append(reference)
                    else:
                        parts.append(_ZERO)
                    results = child.results
                    if len(results) == 1:  # skip the loop set-up
                        values[results[0]] = path + count[op_index] + _ZERO
                    elif results:
                        result_path = path + count[op_index]
                        for index, result in enumerate(results):
                            values[result] = result_path + count[index]
    digest = hashlib.sha256(b"".join(parts)).digest()
    op._digest = digest
    op._digest_free = free_values = tuple(free_values)
    op._digest_free_blocks = free_blocks = tuple(free_blocks)
    return digest, free_values, free_blocks


def op_digest(op: Operation) -> str:
    """Hex structural digest of ``op``'s subtree (memoized on the op).

    Equal digests imply byte-identical :func:`~repro.ir.printer.
    print_op` output; recomputation after a mutation touches only the
    invalidated ancestor chain, reusing every untouched subtree memo.
    """
    return _compute(op)[0].hex()


def module_digest(attributes, function_digests: Sequence[str]) -> str:
    """What :func:`op_digest` gives for a ``builtin.module`` carrying
    ``attributes`` whose one argument-less block holds ops with the
    digests ``function_digests``, none of them referring to a value or
    block outside itself (top-level ``func.func`` ops). A digest is
    compositional (module docstring), so a module spliced from cached
    function text gets its identity from the functions' digests and
    nothing is re-hashed."""
    # No results, operands or successors.
    parts = [_DOMAIN, _name("builtin.module"), _ZERO, _ZERO, _ZERO]
    _attributes(parts, attributes)
    # One region of one block without arguments.
    parts += (_ONE, _ONE, _ZERO, _COUNT[len(function_digests)])
    for digest in function_digests:
        # The op, then its (no) free values and (no) free blocks.
        parts += (bytes.fromhex(digest), _ZERO, _ZERO)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def attributes_digest(op: Operation) -> str:
    """Hex digest of ``op``'s attribute dictionary alone.

    Used by the function tier as the module-attribute divergence
    backstop — a digest compare instead of materializing and
    comparing attribute dictionaries.
    """
    return _attributes_digest(op.attributes)


def _attributes_digest(attributes) -> str:
    parts = [b"repro-attrs-digest-v1"]
    _attributes(parts, attributes)
    return hashlib.sha256(b"".join(parts)).hexdigest()


#: :func:`attributes_digest` of an op without attributes — what the
#: module of a function-tier shard (one function in a bare shell) has.
NO_ATTRIBUTES_DIGEST = _attributes_digest({})
