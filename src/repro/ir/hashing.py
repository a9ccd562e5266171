"""Content-addressed identity for IR subtrees: a digest is the hash of
the print.

Every service path that asks "is this the same IR?" — cache lookup,
single-flight dedup, per-function entry identity, byte-identity
reassembly — compares digests. An op's digest is the SHA-256 of its
:func:`~repro.ir.printer.print_op` text, so the contract::

    op_digest(a) == op_digest(b)   =>   print_op(a) == print_op(b)

holds by construction (up to a SHA-256 collision), and there is one
serializer, the printer.

A ``builtin.module`` whose top-level ops are all closed (isolated from
above, with no operands and no successors: ``func.func`` ops) composes
instead: its digest is :func:`module_digest` of its attributes and its
children's digests. That is sound because the print of such a module
is a function of its attributes and its children's own prints
(DESIGN.md §9: function text is relocatable), and it is what lets a
module spliced from cached function text get its identity without
being printed.

Nothing is memoized: a digest is computed from the IR as it stands,
so no IR write has a digest to clear. A caller that already hashed a
module's functions hands their digests in rather than hashing them
again.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

from .core import IsolatedFromAbove, Operation
from .printer import _print_attr_dict, module_text, print_op

#: Domain-separation prefix; bump when what is hashed changes so stale
#: digests can never collide with fresh ones across versions.
_DOMAIN = b"repro-op-digest-v3"


def _closed(op: Operation) -> bool:
    """Whether ``op``'s print is the same wherever it stands."""
    return (IsolatedFromAbove in type(op).TRAITS
            and not op._operands and not op.successors)


def _composing_children(op: Operation) -> Optional[List[Operation]]:
    """The top-level ops of ``op`` if its digest composes from theirs:
    ``op`` is a closed ``builtin.module`` without results whose one
    region is one argument-less block of closed ops."""
    if op.name != "builtin.module" or op.results or not _closed(op) \
            or len(op.regions) != 1:
        return None
    blocks = op.regions[0].blocks
    if len(blocks) != 1 or blocks[0].args:
        return None
    children = blocks[0].ops
    return children if all(_closed(child) for child in children) else None


def op_digest(op: Operation,
              function_digests: Optional[Sequence[str]] = None) -> str:
    """Hex digest of ``op``'s subtree.

    Equal digests imply byte-identical :func:`~repro.ir.printer.
    print_op` output. ``function_digests``, from a caller that hashed
    ``op``'s top-level ops already, are theirs in order: a composing
    module takes them instead of hashing its functions again, and any
    other op ignores them.
    """
    children = _composing_children(op)
    if children is None:
        return hashlib.sha256(_DOMAIN + print_op(op).encode()).hexdigest()
    if function_digests is None:
        function_digests = [op_digest(child) for child in children]
    return module_digest(op.attributes, function_digests)


def module_digest(attributes, function_digests: Sequence[str]) -> str:
    """What :func:`op_digest` gives for a ``builtin.module`` carrying
    ``attributes`` whose one argument-less block holds closed ops with
    the digests ``function_digests`` (top-level ``func.func`` ops): the
    hash of the module's print with each function's lines replaced by
    its hex digest. A module spliced from cached function text gets its
    identity from the functions' digests, and nothing is printed."""
    text = module_text("\n".join(function_digests), attributes)
    # "/" cannot start a print: no op's text hashes to a module's.
    return hashlib.sha256(_DOMAIN + b"/" + text.encode()).hexdigest()


def attributes_digest(op: Operation) -> str:
    """Hex digest of ``op``'s attribute dictionary alone.

    Used by the function tier as the module-attribute divergence
    backstop — a digest compare instead of materializing and
    comparing attribute dictionaries.
    """
    return _attributes_digest(op.attributes)


def _attributes_digest(attributes) -> str:
    return hashlib.sha256(b"repro-attrs-digest-v2"
                          + _print_attr_dict(attributes).encode()).hexdigest()


#: :func:`attributes_digest` of an op without attributes — what the
#: module of a function-tier shard (one function in a bare shell) has.
NO_ATTRIBUTES_DIGEST = _attributes_digest({})
