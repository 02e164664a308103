"""Seeded random networks as scenario documents, for end-to-end tests.

`random_network_config(seed)` draws 4-6 nodes joined by a random tree
plus up to two chords, with a link in each direction per edge, and 1-3
flows on BFS shortest paths between distinct nodes. Capacities are 0.5, 1
or 2; half the links are bursty (p_gb 0.01, p_bg 0.05), the other half
lose packets independently. Batches of M = 8 with m0_factor 4, bursty
models estimated to m_max 40 from the default 10,000 paths, two-hop
interference.
"""

from collections import deque

import numpy as np

CAPACITIES = (0.5, 1.0, 2.0)
EPSILONS = (0.1, 0.2, 0.3)
S_BAD = (0.3, 0.6)


def _shortest_path(adj, src, dst):
    """Nodes of a BFS shortest path, neighbors visited in index order."""
    prev = {src: None}
    todo = deque([src])
    while todo:
        u = todo.popleft()
        for v in sorted(adj[u]):
            if v not in prev:
                prev[v] = u
                todo.append(v)
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def random_network_config(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    # each node joins a uniformly drawn earlier one: a random tree
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    chords = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in edges]
    for k in rng.permutation(len(chords))[:int(rng.integers(0, 3))]:
        edges.append(chords[k])
    adj = {v: set() for v in range(n)}
    link_of = {}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
        k = len(link_of)
        link_of[u, v], link_of[v, u] = f"e{k}", f"e{k + 1}"
    bursty = set(rng.permutation(len(link_of))[:len(link_of) // 2].tolist())
    links = []
    for i, ((u, v), lid) in enumerate(link_of.items()):
        if i in bursty:
            loss = {"kind": "gilbert_elliott", "s_good": 1.0,
                    "s_bad": float(rng.choice(S_BAD)), "p_gb": 0.01,
                    "p_bg": 0.05}
        else:
            loss = {"kind": "independent",
                    "epsilon": float(rng.choice(EPSILONS))}
        links.append({"id": lid, "from": f"v{u}", "to": f"v{v}",
                      "capacity": float(rng.choice(CAPACITIES)),
                      "loss": loss})
    flows = []
    for _ in range(int(rng.integers(1, 4))):
        src, dst = (int(x) for x in rng.choice(n, size=2, replace=False))
        path = _shortest_path(adj, src, dst)
        flows.append({"links": [link_of[a, b]
                                for a, b in zip(path, path[1:])]})
    return {
        "name": f"random-{seed}",
        "nodes": [f"v{v}" for v in range(n)],
        "links": links,
        "interference": "two-hop",
        "flows": flows,
        "code": {"field_size": 256, "batch_size": 8, "m0_factor": 4},
        "loss_model": {"m_max": 40},
    }
