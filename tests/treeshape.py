"""Shape measures of an assembled call tree, used as test oracles."""
from __future__ import annotations


def node_count(tree) -> int:
    """Spans reachable from the root; orphans are not counted."""
    return 0 if tree.root is None else sum(1 for _ in tree.root.walk())


def depth(tree) -> int:
    """Spans on the longest root-to-leaf path."""

    def _depth(span) -> int:
        return 1 + max((_depth(c) for c in span.children), default=0)

    return 0 if tree.root is None else _depth(tree.root)
