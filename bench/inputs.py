"""Workload inputs, made from the benchmark seed with the benchmark's own
numpy Generator, never with ringlab's samplers, plus the reference core the
``core_cli`` output is checked against.

Work sizes are fixed per workload, so run time does not depend on the seed
beyond what the inputs themselves do.  ``tiny`` sizes serve the self-tests.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

WORKLOAD_NAMES = ("grid_small", "grid_large", "campaign", "core_cli")

SIZES = {
    # criterion-4 shape: per-trial overhead dominates, matching and core idle
    "grid_small": {"full": {"k": list(range(1, 9)), "n": [4, 16, 64, 256], "trials": 75},
                   "tiny": {"k": [1, 2, 3], "n": [4, 16], "trials": 20}},
    # Floyd kernel and the CSR reachability branch (n > 1024) dominate
    "grid_large": {"full": {"k": [8, 16], "n": [2048, 4096], "trials": 10},
                   "tiny": {"k": [8], "n": [2048], "trials": 2}},
    # trivial, core, black-marble core: trials per campaign
    "campaign": {"full": {"trials": [750, 750, 375]},
                 "tiny": {"trials": [100, 100, 50]}},
    # Kuhn matching dominates and is superlinear: do not grow this size
    "core_cli": {"full": {"users": 2048, "rings": 1920},
                 "tiny": {"users": 256, "rings": 240}},
}

MAX_DECOYS = 15
NO_DECOY_SHARE = 0.1  # rings of one member: their removals cascade


def _generator(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_NAMES.index(workload)])


def _program_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**62))


def edge_list(gen: np.random.Generator, n_users: int, n_rings: int) -> tuple[np.ndarray, np.ndarray]:
    """Rings of distinct signers plus uniform decoys over all users.

    Each ring takes k decoys, k uniform in 1..15, except a tenth of the
    rings that take none.  Returns (users, rings) edge arrays, rings
    ascending and users ascending within a ring.
    """
    signers = gen.permutation(n_users)[:n_rings]
    decoys = gen.integers(1, MAX_DECOYS + 1, size=n_rings)
    decoys[gen.random(n_rings) < NO_DECOY_SHARE] = 0
    users, rings = [], []
    for ring in range(n_rings):
        signer = int(signers[ring])
        picks = gen.choice(n_users - 1, size=int(decoys[ring]), replace=False)
        members = np.sort(np.append(picks + (picks >= signer), signer))
        users.append(members)
        rings.append(np.full(members.size, ring))
    return np.concatenate(users), np.concatenate(rings)


def reference_core_csv(n_users: int, n_rings: int, users: np.ndarray, rings: np.ndarray) -> str:
    """The ``ringlab core --format csv`` output, computed independently.

    An edge is in some maximum matching exactly when it is matched, lies on
    an alternating cycle, or lies on an even alternating path from an
    unmatched user.  With unmatched edges oriented user -> ring and matched
    edges ring -> user, that is: same strong component, or its user is
    reachable from an unmatched user.  Hopcroft-Karp matching and strong
    components come from scipy, not from ringlab.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import (
        breadth_first_order,
        connected_components,
        maximum_bipartite_matching,
    )

    ones = np.ones(users.size, dtype=np.int8)
    user_of_ring = maximum_bipartite_matching(
        csr_matrix((ones, (rings, users)), shape=(n_rings, n_users)), perm_type="column"
    )
    if (user_of_ring < 0).any():
        raise ValueError("generated graph has no matching covering every ring")
    matched = user_of_ring[rings] == users
    # nodes: users 0..n_users-1, rings n_users.., a source joined to unmatched users
    source = n_users + n_rings
    free = np.setdiff1d(np.arange(n_users), user_of_ring)
    src = np.concatenate([np.where(matched, n_users + rings, users), np.full(free.size, source)])
    dst = np.concatenate([np.where(matched, users, n_users + rings), free])
    graph = csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(source + 1,) * 2)
    _, component = connected_components(graph, directed=True, connection="strong")
    reached = np.zeros(source + 1, dtype=bool)
    reached[breadth_first_order(graph, source, directed=True, return_predecessors=False)] = True
    in_core = matched | (component[users] == component[n_users + rings]) | reached[users]
    degree = np.bincount(rings[in_core], minlength=n_rings)
    lines = ["ring_index,core_degree,deanonymised"]
    lines += [f"{r},{d},{'true' if d == 1 else 'false'}" for r, d in enumerate(degree.tolist())]
    return "\n".join(lines) + "\n"


def make_params(workload: str, seed: int, tiny: bool, workdir: str) -> dict:
    """The worker's parameters; ``core_cli`` also writes its edge list to ``workdir``."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    gen = _generator(seed, workload)
    if workload in ("grid_small", "grid_large"):
        return dict(size, seed=_program_seed(gen))
    if workload == "campaign":
        return dict(size, seeds=[_program_seed(gen) for _ in size["trials"]])
    n_users, n_rings = size["users"], size["rings"]
    users, rings = edge_list(gen, n_users, n_rings)
    path = os.path.join(workdir, "core_cli_edges.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n_users} {n_rings}\n")
        fh.write("".join(f"{u} {r}\n" for u, r in zip(users.tolist(), rings.tolist())))
    expected = reference_core_csv(n_users, n_rings, users, rings)
    return dict(
        size,
        edges=int(users.size),
        edge_list=path,
        out=os.path.join(workdir, "core_cli_out.csv"),
        expected_sha256=hashlib.sha256(expected.encode()).hexdigest(),
    )
