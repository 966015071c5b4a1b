"""Kademlia XOR metric and k-bucket routing tables [Maymounkov &
Mazieres, IPTPS'02].

Node IDs live in a 256-bit keyspace (the hash of the node's public
key, as in Ethereum's discv5). The routing table keeps up to ``k``
contacts per bucket, bucket ``i`` covering peers whose XOR distance
has its highest set bit at position ``i``. In the simulation, tables
are filled from the crawl model (``repro.dht.enr``) rather than by
live liveness probing, matching how the paper's nodes build views by
periodically crawling the DHT.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["xor_distance", "bucket_index", "RoutingTable", "ID_BITS", "DEFAULT_K"]

ID_BITS = 256
DEFAULT_K = 16


def xor_distance(a: int, b: int) -> int:
    """The Kademlia metric: d(a, b) = a XOR b."""
    return a ^ b


def bucket_index(own_id: int, other_id: int) -> int:
    """Index of the bucket holding ``other_id``: log2 of the distance."""
    distance = own_id ^ other_id
    if distance == 0:
        raise ValueError("a node does not bucket itself")
    return distance.bit_length() - 1


class RoutingTable:
    """k-buckets for one node.

    Stores node *ids*; the overlay maps ids to network addresses.
    Insertion follows least-recently-seen eviction-free semantics
    (buckets simply cap at k, oldest entries win), which is the
    classic behaviour in a stable network.
    """

    def __init__(self, own_id: int, k: int = DEFAULT_K) -> None:
        if k < 1:
            raise ValueError("bucket size k must be positive")
        self.own_id = own_id
        self.k = k
        self._buckets: dict[int, list[int]] = {}

    def insert(self, node_id: int) -> bool:
        """Add a contact; returns False if ignored (self or full bucket)."""
        if node_id == self.own_id:
            return False
        index = bucket_index(self.own_id, node_id)
        bucket = self._buckets.setdefault(index, [])
        if node_id in bucket:
            return False
        if len(bucket) >= self.k:
            return False
        bucket.append(node_id)
        return True

    def remove(self, node_id: int) -> None:
        index = bucket_index(self.own_id, node_id)
        bucket = self._buckets.get(index)
        if bucket and node_id in bucket:
            bucket.remove(node_id)

    def populate(self, node_ids: Iterable[int]) -> int:
        """Bulk-fill from a crawl; returns the number inserted."""
        return sum(1 for node_id in node_ids if self.insert(node_id))

    def closest(self, target: int, count: int | None = None) -> list[int]:
        """The ``count`` known ids closest to ``target`` (default k)."""
        count = count if count is not None else self.k
        contacts = [node_id for bucket in self._buckets.values() for node_id in bucket]
        contacts.sort(key=lambda node_id: node_id ^ target)
        return contacts[:count]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
