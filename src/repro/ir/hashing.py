"""Content-addressed structural hashing for IR subtrees.

Every scale-sensitive service path — cache lookup, single-flight
dedup, ``--jobs`` shard identity, byte-identity reassembly — used to
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
from .printer import print_attribute

_PACK = struct.Struct(">I").pack

#: Domain-separation prefix; bump when the encoding changes so stale
#: digests can never collide with fresh ones across versions.
_DOMAIN = b"repro-op-digest-v1"


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
    parts.append(_PACK(len(attributes)))
    for key, attribute in sorted(attributes.items()):
        parts += (_name(key), _text(print_attribute(attribute)))


def _compute(op: Operation) -> Tuple[bytes, tuple, tuple]:
    """Digest of ``op``'s subtree plus its free values/blocks; memoized.

    The encoding of one op is built as a list of byte strings and
    hashed once (``_DOMAIN`` + concatenation): the bytes are what one
    ``update`` per field would feed the hash, at a fraction of the
    calls — tests/ir/test_hashing.py pins digests of fixed IR so the
    encoding cannot drift."""
    memo = op._digest
    if memo is not None:
        DIGEST_STATS.hits += 1
        return memo, op._digest_free, op._digest_free_blocks
    DIGEST_STATS.recomputes += 1

    pack = _PACK
    parts = [_DOMAIN, _name(op.name), pack(len(op.results))]
    for result in op.results:
        parts.append(_name(str(result.type)))
    # The root's operands (and successors) are free by construction
    # (SSA: an op cannot use its own results, and its regions' values
    # are not visible as operands), and they are hashed before the
    # regions so free indices follow the printer's first-use order.
    free_values: List[Value] = []
    free_blocks: List[Block] = []
    operands = op.operands
    parts.append(pack(len(operands)))
    # id -> free index; values and blocks are distinct live objects,
    # so one table serves both.
    seen: Dict[int, int] = {}
    for operand in operands:
        index = seen.setdefault(id(operand), len(free_values))
        if index == len(free_values):
            free_values.append(operand)
        parts += (b"F", pack(index), _name(str(operand.type)))
    parts.append(pack(len(op.successors)))
    for successor in op.successors:
        index = seen.setdefault(id(successor), len(free_blocks))
        if index == len(free_blocks):
            free_blocks.append(successor)
        parts += (b"F", pack(index))
    _attributes(parts, op.attributes)
    parts.append(pack(len(op.regions)))
    if op.regions:  # leaf ops — most ops — stop here
        _regions(op, parts, free_values, free_blocks)
    digest = hashlib.sha256(b"".join(parts)).digest()
    op._digest = digest
    op._digest_free = tuple(free_values)
    op._digest_free_blocks = tuple(free_blocks)
    return digest, op._digest_free, op._digest_free_blocks


def _regions(op: Operation, parts: List[bytes],
             free_values: List[Value], free_blocks: List[Block]) -> None:
    """Append the regions of ``op``: per block its argument types and,
    per child op, the child's digest with the child's free references
    re-encoded against this level's paths — which is what binds "child
    uses free value #k" to an actual definition site. References this
    level cannot resolve either join ``free_values``/``free_blocks``."""
    pack = _PACK
    #: id(value or block) -> its encoded reference, ``b"L" + path`` for
    #: what this op's regions define, ``b"F" + index`` for what they
    #: do not.
    values = {id(value): b"F" + pack(index)
              for index, value in enumerate(free_values)}
    blocks = {id(block): b"F" + pack(index)
              for index, block in enumerate(free_blocks)}
    for region_index, region in enumerate(op.regions):
        parts.append(pack(len(region.blocks)))
        # Pre-register every block and block argument of the region so
        # forward references (a branch to a later block) encode as
        # local paths, not free indices.
        for block_index, block in enumerate(region.blocks):
            path = b"L" + pack(region_index) + pack(block_index)
            blocks[id(block)] = path
            for arg_index, arg in enumerate(block.args):
                values[id(arg)] = path + b"a" + pack(arg_index)
        for block_index, block in enumerate(region.blocks):
            path = b"L" + pack(region_index) + pack(block_index) + b"r"
            parts.append(pack(len(block.args)))
            for arg in block.args:
                parts.append(_name(str(arg.type)))
            parts.append(pack(len(block.ops)))
            for op_index, child in enumerate(block.ops):
                child_digest, child_free, child_free_blocks = _compute(child)
                parts += (child_digest, pack(len(child_free)))
                for value in child_free:
                    reference = values.get(id(value))
                    if reference is None:
                        reference = values[id(value)] = \
                            b"F" + pack(len(free_values))
                        free_values.append(value)
                    parts.append(reference)
                parts.append(pack(len(child_free_blocks)))
                for free_block in child_free_blocks:
                    reference = blocks.get(id(free_block))
                    if reference is None:
                        reference = blocks[id(free_block)] = \
                            b"F" + pack(len(free_blocks))
                        free_blocks.append(free_block)
                    parts.append(reference)
                if child.results:
                    result_path = path + pack(op_index)
                    for result_index, result in enumerate(child.results):
                        values[id(result)] = result_path + pack(result_index)


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
    parts = [_DOMAIN, _name("builtin.module"), _PACK(0), _PACK(0), _PACK(0)]
    _attributes(parts, attributes)
    # One region of one block without arguments.
    parts += (_PACK(1), _PACK(1), _PACK(0), _PACK(len(function_digests)))
    for digest in function_digests:
        # The op, then its (no) free values and (no) free blocks.
        parts += (bytes.fromhex(digest), _PACK(0), _PACK(0))
    return hashlib.sha256(b"".join(parts)).hexdigest()


def attributes_digest(op: Operation) -> str:
    """Hex digest of ``op``'s attribute dictionary alone.

    Used by the function tier as the module-attribute divergence
    backstop — a digest compare instead of materializing and
    comparing attribute dictionaries.
    """
    parts = [b"repro-attrs-digest-v1"]
    _attributes(parts, op.attributes)
    return hashlib.sha256(b"".join(parts)).hexdigest()
