"""Block cache.

RocksDB keeps hot data and index blocks in a block cache; the host's
page cache plays the same role for the BLK stack, and the device's
data-block/index-block buffers do on smart storage (§5 memory
reservations).  The cache here is accounting-only: a hit means the block
read is *not* charged to flash I/O.
"""

from collections import OrderedDict


class BlockCache:
    """A byte-capacity LRU over opaque block keys."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries = OrderedDict()     # key -> nbytes
        self._used = 0
        self.hits = 0
        self.misses = 0

    def access(self, key, nbytes):
        """Record an access; returns True on a hit (I/O avoided)."""
        if self.capacity_bytes <= 0:
            self.misses += 1
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if nbytes <= self.capacity_bytes:
            self._entries[key] = nbytes
            self._used += nbytes
            while self._used > self.capacity_bytes:
                _evicted, evicted_bytes = self._entries.popitem(last=False)
                self._used -= evicted_bytes
        return False

    def replay(self, keys, sizes, runs):
        """Replay a recorded access sequence; returns the missed positions.

        The sequence is ``keys[start:end]`` (with sizes ``sizes[start:end]``)
        for each ``(start, end)`` in ``runs``, in order; a run may repeat.
        The cache ends in exactly the state, and with exactly the hit and
        miss counts, that calling :meth:`access` once per access would
        leave.  The result lists the position in ``keys`` of every access
        that missed, in access order.

        When the blocks new to the cache fit beside what it holds, nothing
        can be evicted: each new block misses once, at its first access,
        and every other access hits, so the distinct runs are walked
        instead of the whole sequence.
        """
        if self.capacity_bytes <= 0:
            missed = [pos for start, end in runs for pos in range(start, end)]
            self.misses += len(missed)
            return missed
        entries = self._entries
        first_seen = {}                  # block new to the cache -> position
        for start, end in dict.fromkeys(runs):
            for pos in range(start, end):
                key = keys[pos]
                if key not in entries and key not in first_seen:
                    first_seen[key] = pos
        new_bytes = sum(sizes[pos] for pos in first_seen.values())
        if self._used + new_bytes > self.capacity_bytes:
            missed = []
            access = self.access
            for start, end in runs:
                for pos in range(start, end):
                    if not access(keys[pos], sizes[pos]):
                        missed.append(pos)
            return missed
        for key, pos in first_seen.items():
            entries[key] = sizes[pos]
        self._used += new_bytes
        # A block's LRU position is that of its last access: walk the
        # runs in order of their last occurrence.
        move_to_end = entries.move_to_end
        for start, end in reversed(dict.fromkeys(reversed(runs))):
            for pos in range(start, end):
                move_to_end(keys[pos])
        accesses = sum(end - start for start, end in runs)
        self.misses += len(first_seen)
        self.hits += accesses - len(first_seen)
        return list(first_seen.values())

    @property
    def used_bytes(self):
        """Bytes currently cached."""
        return self._used

    def __len__(self):
        return len(self._entries)

    def hit_rate(self):
        """Fraction of accesses served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
