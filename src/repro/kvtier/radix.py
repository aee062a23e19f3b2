"""Shared-prefix radix cache over token-ID prompts.

The millions-of-users scenario: every request opens with the same
system prompt, so the KV blocks covering that prefix are identical
across requests and computing them once is pure win.  This module
models that sharing SGLang-style — a radix tree keyed on token IDs,
block-granular accounting, refcounted pinning while any request reads a
path, copy-on-write where a new request diverges mid-block, and LRU
reclamation of unreferenced nodes when the pool needs blocks back.

The cache is storage-agnostic: it counts blocks and bytes, and callers
(cluster nodes, the paged backend) decide what a block costs.  A
``match`` is measured in *tokens*; only whole blocks are reusable, so
the benefit a caller should apply is ``block_hit_tokens``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


@dataclass
class RadixStats:
    """Lifetime counters for one radix cache."""

    lookups: int = 0
    #: Lookups that reused at least one full block.
    hits: int = 0
    hit_tokens: int = 0
    inserted_tokens: int = 0
    #: Edge splits at a non-block-aligned point: the divergence block is
    #: duplicated so the shared parent stays immutable.
    cow_copies: int = 0
    cow_bytes: int = 0
    evicted_blocks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Node:
    """One radix-tree edge: a run of tokens starting at ``start``."""

    __slots__ = ("tokens", "start", "children", "parent", "refs", "last_hit")

    def __init__(self, tokens: Tuple[int, ...], start: int,
                 parent: "Optional[_Node]"):
        self.tokens = tokens
        self.start = start
        self.children: Dict[int, _Node] = {}
        self.parent = parent
        self.refs = 0
        self.last_hit = 0.0

    def full_blocks(self, block_tokens: int) -> int:
        """Whole KV blocks this edge completes (block-boundary aligned)."""
        end = self.start + len(self.tokens)
        return end // block_tokens - self.start // block_tokens


class RadixPrefixCache:
    """Radix tree sharing block-granular KV across common prompt prefixes."""

    def __init__(self, block_tokens: int, block_bytes: int):
        if block_tokens <= 0 or block_bytes <= 0:
            raise ConfigError("block_tokens and block_bytes must be positive")
        self.block_tokens = block_tokens
        self.block_bytes = block_bytes
        self._root = _Node((), 0, None)
        self._root.refs = 1  # never evicted
        #: owner -> deepest pinned node (the whole path holds one ref each).
        self._pins: Dict[int, _Node] = {}
        #: Whole blocks the tree holds: ``insert`` adds the new edge's,
        #: ``reclaim`` subtracts the victim's, ``clear`` zeroes; a split
        #: keeps the sum (the two halves complete the original edge's
        #: blocks between them).
        self._blocks = 0
        self.stats = RadixStats()

    # -- accounting -----------------------------------------------------------
    @property
    def resident_blocks(self) -> int:
        # Partial trailing blocks belong to the owning request's own
        # allocation, not the shared pool.
        return self._blocks

    @property
    def resident_bytes(self) -> int:
        return self.resident_blocks * self.block_bytes

    @property
    def pinned_bytes(self) -> int:
        """Resident bytes :meth:`reclaim` can never free: the whole
        blocks of every edge on a pinned path."""
        bt = self.block_tokens
        return self.block_bytes * sum(
            n.full_blocks(bt) for n in self._iter_nodes() if n.refs)

    def _iter_nodes(self) -> List[_Node]:
        out: List[_Node] = []
        stack = [self._root]
        while stack:
            n = stack.pop()
            if n is not self._root:
                out.append(n)
            stack.extend(n.children.values())
        return out

    # -- lookup / insert ------------------------------------------------------
    def match(self, tokens: Sequence[int], now: float) -> int:
        """Longest cached prefix of ``tokens``, in tokens (not pinned)."""
        self.stats.lookups += 1
        node, matched = self._walk(tuple(tokens))
        while node is not None and node is not self._root:
            node.last_hit = now
            node = node.parent
        block_hit = self.block_hit_tokens(matched)
        if block_hit:
            self.stats.hits += 1
            self.stats.hit_tokens += block_hit
        return matched

    def peek(self, tokens: Sequence[int]) -> int:
        """Longest cached prefix in tokens, with **no side effects**.

        Unlike :meth:`match` this neither counts a lookup nor touches
        LRU timestamps — routers probing every node's cache to place a
        request must not perturb the caches they inspect (or the stats
        the reports are built from).
        """
        _, matched = self._walk(tuple(tokens))
        return matched

    def block_hit_tokens(self, matched_tokens: int) -> int:
        """The reusable (whole-block) part of a token match."""
        return (matched_tokens // self.block_tokens) * self.block_tokens

    def insert(self, owner: int, tokens: Sequence[int], now: float) -> int:
        """Register ``owner``'s prompt, sharing any cached prefix.

        Returns the whole-block token count served from cache.  The
        owner pins its path until :meth:`release`; pinned nodes are
        never reclaimed.
        """
        if owner in self._pins:
            raise ConfigError(f"owner {owner} already holds a radix pin")
        toks = tuple(tokens)
        node, matched = self._walk(toks, split=True)
        self.stats.lookups += 1
        block_hit = self.block_hit_tokens(matched)
        if block_hit:
            self.stats.hits += 1
            self.stats.hit_tokens += block_hit
        if matched < len(toks):
            child = _Node(toks[matched:], matched, node)
            node.children[child.tokens[0]] = child
            self._blocks += child.full_blocks(self.block_tokens)
            self.stats.inserted_tokens += len(child.tokens)
            node = child
        node.last_hit = now
        self._pin(owner, node)
        return block_hit

    def release(self, owner: int) -> None:
        """Drop ``owner``'s pin; its path becomes reclaimable."""
        node = self._pins.pop(owner, None)
        while node is not None and node is not self._root:
            node.refs -= 1
            node = node.parent

    def holds(self, owner: int) -> bool:
        return owner in self._pins

    def reclaim(self, target_bytes: int, now: float) -> int:
        """Evict unreferenced leaves, LRU by last hit, until at least
        ``target_bytes`` of whole-block KV is freed (or nothing
        evictable remains).  Returns the bytes actually freed."""
        freed = 0
        while freed < target_bytes:
            victims = [n for n in self._iter_nodes()
                       if n.refs == 0 and not n.children]
            if not victims:
                break
            victim = min(victims, key=lambda n: (n.last_hit, n.start))
            del victim.parent.children[victim.tokens[0]]
            blocks = victim.full_blocks(self.block_tokens)
            self._blocks -= blocks
            freed += blocks * self.block_bytes
            self.stats.evicted_blocks += blocks
        return freed

    def clear(self) -> None:
        """Drop the whole tree (node crash: device KV is gone)."""
        self._root.children.clear()
        self._pins.clear()
        self._blocks = 0

    # -- internals ------------------------------------------------------------
    def _pin(self, owner: int, node: _Node) -> None:
        self._pins[owner] = node
        while node is not None and node is not self._root:
            node.refs += 1
            node = node.parent

    def _walk(self, tokens: Tuple[int, ...], split: bool = False):
        """Descend as far as ``tokens`` match; returns (node, matched).

        With ``split=True`` a partial edge match splits the edge so the
        returned node ends exactly at the divergence point; a split at
        a non-block-aligned offset is a copy-on-write of the divergence
        block (the sharer gets its own copy of that block).
        """
        node, matched = self._root, 0
        while matched < len(tokens):
            child = node.children.get(tokens[matched])
            if child is None:
                return node, matched
            edge = len(child.tokens)
            if tokens[matched:matched + edge] == child.tokens:
                node, matched = child, matched + edge
                continue
            # Partial edge match: the first ``run`` tokens are cached too.
            run = 0
            limit = min(edge, len(tokens) - matched)
            while run < limit and child.tokens[run] == tokens[matched + run]:
                run += 1
            matched += run
            if split:
                return self._split(child, run), matched
            return node, matched
        return node, matched

    def _split(self, node: _Node, at: int) -> _Node:
        """Split ``node``'s edge at token offset ``at`` (0 < at < len);
        returns the new head node ending exactly at the split point."""
        head = _Node(node.tokens[:at], node.start, node.parent)
        head.refs = node.refs
        head.last_hit = node.last_hit
        node.parent.children[head.tokens[0]] = head
        node.parent = head
        node.tokens = node.tokens[at:]
        node.start = head.start + at
        head.children[node.tokens[0]] = node
        if node.start % self.block_tokens:
            # Divergence mid-block: the tail's first partial block must
            # be copied so the shared head's block stays immutable.
            self.stats.cow_copies += 1
            self.stats.cow_bytes += self.block_bytes
        return head
