"""Consistent-hash ring with virtual nodes for replica routing.

The ring maps request cache keys (the same
:meth:`repro.core.api.AnalyzeRequest.cache_key` digest the per-replica
LRU in :mod:`repro.serve.cache` is keyed on) to replica names, with two
properties the cluster router depends on:

* **Balance** — each replica owns many pseudo-randomly scattered arc
  segments (*virtual nodes*), so keys spread close to uniformly even
  with a handful of replicas.  The spread tightens as ``vnodes`` grows.
* **Minimal movement** — adding or removing one replica only reassigns
  the keys on the arcs that replica owned; every other key keeps its
  replica, which is what keeps the surviving replicas' caches hot
  through membership changes.

Hashing is :func:`hashlib.sha256` over deterministic byte strings, so
every router process (and every test run) computes the identical ring
for the same membership — a property test in
``tests/test_cluster_ring.py`` pins both guarantees.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ClusterError

#: Virtual nodes per replica.  64 keeps the largest/smallest ownership
#: ratio within a few tens of percent for small clusters while the
#: ring stays tiny (a few hundred entries for a handful of replicas).
DEFAULT_VNODES = 64


def _point(data: str) -> int:
    """A deterministic 64-bit ring position for *data*."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8],
                          "big")


class HashRing:
    """A consistent-hash ring over named nodes.

    Parameters
    ----------
    nodes:
        Initial membership (names must be unique and non-empty).
    vnodes:
        Virtual nodes per member; more vnodes = better balance,
        linearly larger ring.
    """

    def __init__(self, nodes: Iterable[str] = (), *,
                 vnodes: int = DEFAULT_VNODES) -> None:
        if int(vnodes) < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        self._nodes: Dict[str, List[int]] = {}
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """Current members, sorted by name."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add *node* (its vnodes join the ring)."""
        if not isinstance(node, str) or not node:
            raise ClusterError(f"ring node must be a non-empty string, "
                               f"got {node!r}")
        if node in self._nodes:
            raise ClusterError(f"ring already contains node {node!r}")
        points = []
        for index in range(self.vnodes):
            point = _point(f"{node}#{index}")
            # sha256 collisions across distinct vnode labels are not a
            # practical concern, but a deterministic tie-break keeps
            # the ring well-defined if one ever happened: ties sort by
            # node name via the (point, node) tuple ordering.
            position = bisect.bisect_left(self._points, (point, node))
            self._points.insert(position, (point, node))
            self._keys.insert(position, point)
            points.append(point)
        self._nodes[node] = points

    def remove(self, node: str) -> None:
        """Remove *node*; only its arcs reassign to the successors."""
        if node not in self._nodes:
            raise ClusterError(f"ring does not contain node {node!r}")
        del self._nodes[node]
        kept = [(point, name) for point, name in self._points if name != node]
        self._points = kept
        self._keys = [point for point, _name in kept]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> str:
        """The node owning *key* (the first vnode clockwise of it)."""
        return self.preference(key, 1)[0]

    def preference(self, key: str, n: Optional[int] = None) -> List[str]:
        """The first *n* **distinct** nodes clockwise of *key*.

        This is the failover order: the owner first, then the replicas
        that would inherit the key if the owner left the ring — so a
        router walking this list on errors lands keys exactly where a
        membership change would have placed them, preserving cache
        locality through failures.
        """
        if not self._nodes:
            raise ClusterError("ring is empty: no replica to route to")
        want = len(self._nodes) if n is None else min(int(n), len(self._nodes))
        if want < 1:
            raise ClusterError(f"preference size must be >= 1, got {n}")
        start = bisect.bisect_right(self._keys, _point(key))
        order: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            _point_value, node = self._points[(start + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == want:
                    break
        return order

    def ownership(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of *keys* each node owns (every member present)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts
