"""Content-addressed structural hashing for IR subtrees.

Every scale-sensitive service path — cache lookup, single-flight
dedup, per-function entry identity, byte-identity reassembly — used to
bottom out in :func:`repro.ir.printer.print_op` over an entire module:
O(module) string work per lookup. This module gives operations a
cheap structural identity instead: a SHA-256 digest computed
bottom-up over (op name, attributes, operand structure, result types,
successors, regions). One digest is memoized per op *with regions*
(a region-holding op, a function, a module) on the
:class:`~repro.ir.core.Operation`; a leaf op — most ops — gets no
hash of its own and is encoded inline in its parent's. Memos are
invalidated through the mutation hooks in :mod:`repro.ir.core` (an
ancestor-chain walk that stops at the first already-cleared memo, so
never-hashed IR pays at most one parent hop per mutation).

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
encoded through the same mechanism. A leaf's operands and successors
resolve directly against its parent's paths.
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
_DOMAIN = b"repro-op-digest-v2"
#: Marks a child with regions, which enters as its digest; a leaf
#: enters inline, starting with its name's length (a zero byte first).
_NESTED = b"R"
#: Fields joined per ``update``: one join of a whole function body
#: would hold a copy of its encoding at once.
_RUN = 512


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
    items = attributes.items()
    for key, attribute in sorted(items) if len(attributes) > 1 else items:
        parts += (_name(key), _text(str(attribute)))


def _header(parts: List[bytes], op: Operation,
            values: Dict[Value, bytes], free_values: List[Value],
            blocks: Dict[Block, bytes], free_blocks: List[Block]) -> None:
    """Append ``op``'s header: its name, result types, operands as
    (reference, type), attributes and successor references. A value or
    block missing from ``values``/``blocks`` (which map what is
    referenced to its reference) joins ``free_values``/``free_blocks``:
    references follow the printer's first-use order."""
    name = _name
    parts += (name(op.name), _COUNT[len(op.results)])
    for result in op.results:
        parts.append(name(result.type._str))
    parts.append(_COUNT[len(op._operands)])
    for operand in op._operands:
        value = operand._value
        reference = values.get(value)
        if reference is None:
            reference = values[value] = _FREE[len(free_values)]
            free_values.append(value)
        parts += (reference, name(value.type._str))
    if op.attributes:
        _attributes(parts, op.attributes)
    else:  # most ops
        parts.append(_ZERO)
    parts.append(_COUNT[len(op.successors)])
    for target in op.successors:
        reference = blocks.get(target)
        if reference is None:
            reference = blocks[target] = _FREE[len(free_blocks)]
            free_blocks.append(target)
        parts.append(reference)


def _compute(op: Operation) -> Tuple[bytes, tuple, tuple]:
    """Digest of ``op``'s subtree plus its free values/blocks; memoized
    when ``op`` has regions.

    The encoding is fed to one running hash as joined runs of byte
    strings, a run per few hundred fields: the bytes are what one
    ``update`` per field would feed it, at a fraction of the calls —
    tests/ir/test_hashing.py pins digests of fixed IR so the encoding
    cannot drift, and tests/ir/test_emission.py compares against a
    field-by-field reference encoder.

    The root's header comes first — its operands and successors are
    free by construction (SSA: an op cannot use its own results, and
    its regions' values are not visible as operands) — then its region
    count. Per child op the regions append either the child's header —
    a leaf, with its references resolved in this level's tables — or
    ``_NESTED``, the child's digest and the child's free values and
    blocks re-encoded against this level's paths, which is what binds
    "child uses free value #k" to an actual definition site.
    References this level cannot resolve either join its own free
    values/blocks."""
    memo = op._digest
    if memo is not None:
        DIGEST_STATS.hits += 1
        return memo
    DIGEST_STATS.recomputes += 1

    count, free, name = _COUNT, _FREE, _name
    #: value or block -> its encoded reference, ``b"L" + path`` for what
    #: this op's regions define, ``b"F" + index`` for what they do not.
    #: Keyed by the objects (identity hash), all of them alive in the
    #: IR for as long as this call runs.
    values: Dict[Value, bytes] = {}
    blocks: Dict[Block, bytes] = {}
    free_values: List[Value] = []
    free_blocks: List[Block] = []
    parts = [_DOMAIN]
    _header(parts, op, values, free_values, blocks, free_blocks)
    parts.append(count[len(op.regions)])
    hasher = hashlib.sha256()
    for region_index, region in enumerate(op.regions):
        parts.append(count[len(region.blocks)])
        # Pre-register every block and block argument of the region so
        # forward references (a branch to a later block) encode as
        # local paths, not free indices.
        for block_index, block in enumerate(region.blocks):
            path = b"L" + count[region_index] + count[block_index]
            blocks[block] = path
            for arg_index, arg in enumerate(block.args):
                values[arg] = path + b"a" + count[arg_index]
        for block in region.blocks:
            path = blocks[block] + b"r"
            parts.append(count[len(block.args)])
            for arg in block.args:
                parts.append(name(arg.type._str))
            parts.append(count[len(block.ops)])
            for op_index, child in enumerate(block.ops):
                if not child.regions:
                    _header(parts, child, values, free_values,
                            blocks, free_blocks)
                else:
                    digest, child_values, child_blocks = _compute(child)
                    parts += (_NESTED, digest, count[len(child_values)])
                    for value in child_values:
                        reference = values.get(value)
                        if reference is None:
                            reference = values[value] = \
                                free[len(free_values)]
                            free_values.append(value)
                        parts.append(reference)
                    parts.append(count[len(child_blocks)])
                    for target in child_blocks:
                        reference = blocks.get(target)
                        if reference is None:
                            reference = blocks[target] = \
                                free[len(free_blocks)]
                            free_blocks.append(target)
                        parts.append(reference)
                results = child.results
                if len(results) == 1:  # skip the loop set-up
                    values[results[0]] = path + count[op_index] + _ZERO
                elif results:
                    result_path = path + count[op_index]
                    for index, result in enumerate(results):
                        values[result] = result_path + count[index]
                if len(parts) > _RUN:
                    hasher.update(b"".join(parts))
                    parts.clear()
    hasher.update(b"".join(parts))
    memo = (hasher.digest(), tuple(free_values), tuple(free_blocks))
    if op.regions:  # a leaf is hashed inside its parent: no memo
        op._digest = memo
    return memo


def op_digest(op: Operation) -> str:
    """Hex structural digest of ``op``'s subtree (memoized on ``op``
    when it has regions).

    Equal digests imply byte-identical :func:`~repro.ir.printer.
    print_op` output; recomputation after a mutation touches only the
    invalidated ancestor chain, reusing every untouched subtree memo.
    """
    return _compute(op)[0].hex()


def module_digest(attributes, function_digests: Sequence[str]) -> str:
    """What :func:`op_digest` gives for a ``builtin.module`` carrying
    ``attributes`` whose one argument-less block holds ops with the
    digests ``function_digests``, each with regions and none referring
    to a value or block outside itself (top-level ``func.func`` ops). A
    digest is compositional (module docstring), so a module spliced
    from cached function text gets its identity from the functions'
    digests and nothing is re-hashed."""
    # No results or operands, ``attributes``, no successors.
    parts = [_DOMAIN, _name("builtin.module"), _ZERO, _ZERO]
    _attributes(parts, attributes)
    # One region of one block without arguments.
    parts += (_ZERO, _ONE, _ONE, _ZERO, _COUNT[len(function_digests)])
    for digest in function_digests:
        # The op, then its (no) free values and (no) free blocks.
        parts += (_NESTED, bytes.fromhex(digest), _ZERO, _ZERO)
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
