"""Seeded benchmark inputs: topology documents of the layered family.

``layered(levels, width, per_switch)`` puts switch ``s1`` with the user host
``h1`` on level 1, then ``width`` switches on each of levels 2..levels, each
switch with ``per_switch`` server hosts. Adjacent levels are joined
complete-bipartite. Every link carries 1000 Mbps. A switch link between
levels ``l`` and ``l + 1`` has delay ``5 + l`` ms plus a seeded jitter in
``[0, JITTER_MS)``; host links have delay 0. The jitter makes every document
distinct and every (hops, delay) shortest path unique, while leaving the
levels far apart in feature space.

The documents are plain dicts in the program's topology document schema, so
the program sees only these generated inputs.
"""

from __future__ import annotations

import random

CAPACITY_MBPS = 1000.0
JITTER_MS = 0.05

# (levels, width, per_switch)
SHAPE_M = (6, 10, 5)  # 51 switches, 250 servers, 661 links
SHAPE_PLAN = (7, 6, 5)  # 37 switches, 180 servers, 367 links


def layered(levels: int, width: int, per_switch: int, rng: random.Random) -> dict:
    """One topology document of the layered family, jittered from ``rng``."""
    nodes = [
        {"id": "s1", "kind": "switch", "level": 1},
        {"id": "h1", "kind": "user_host", "level": 1, "label": "10.0.0.1"},
    ]
    links = [{"a": "h1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": CAPACITY_MBPS}]
    by_level = {1: ["s1"]}
    switch_n, host_n = 2, 2
    for level in range(2, levels + 1):
        by_level[level] = []
        for _ in range(width):
            switch = f"s{switch_n}"
            switch_n += 1
            by_level[level].append(switch)
            nodes.append({"id": switch, "kind": "switch", "level": level})
            for _ in range(per_switch):
                host = f"h{host_n}"
                host_n += 1
                nodes.append({"id": host, "kind": "server_host", "level": level})
                links.append({"a": host, "b": switch, "delay_ms": 0.0, "capacity_mbps": CAPACITY_MBPS})
    for level in range(1, levels):
        for upper in by_level[level]:
            for lower in by_level[level + 1]:
                delay = 5.0 + level + rng.random() * JITTER_MS
                links.append({"a": upper, "b": lower, "delay_ms": delay, "capacity_mbps": CAPACITY_MBPS})
    return {"nodes": nodes, "links": links, "user_switch": "s1"}

