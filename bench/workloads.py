"""The benchmark's three workloads, built through hpmsim's public API.

Each workload is one `RunConfig`. The generated instances have their state
coordinates relabelled by one fixed permutation P (u -> P u,
F1 -> P F1 P^T, F2 -> P F2 (P^T kron P^T)). With that labelling, LAPACK's
eigensolver returns three spurious complex pairs for the n=4 embedding, so
gen4-gmres measures the complex-vector path of `sparse.dense_eigs`. The
`--seed` of a run only shuffles the order of the triplets. The assembled
matrices are then the same bit for bit, so the work of a run does not
depend on the seed, while the inputs the program receives do. std1 has one
triplet per matrix, so its inputs are the same for every seed.
"""

from __future__ import annotations

import numpy as np

from hpmsim.pipeline import RunConfig, generate_instance

T = 1.0
EPSILON = 1e-2

# instance parameters of the ROADMAP ladder: s = 2, K = 0.3, instance seed 7
GEN_S = 2
GEN_K = 0.3
GEN_SEED = 7
# seed of the fixed coordinate relabelling of the generated instances
LABEL_SEED = 11

# name -> (n, solver); n = None marks the scalar Bernoulli instance
WORKLOADS = {
    "std1": (None, "forward"),
    "gen4-gmres": (4, "iterative"),
    "gen8": (8, "forward"),
}

STD1 = {
    "n": 1, "T": T, "epsilon": EPSILON, "u_in": [0.5],
    "F1_triplets": [[0, 0, -1.0]],
    "F2_triplets": [[0, 0, 0.2]],
}


def config_dict(name: str, seed: int) -> dict:
    """The raw config of workload `name` for benchmark seed `seed`."""
    n, solver = WORKLOADS[name]
    if n is None:
        return {**STD1, "solver": solver}
    ode = generate_instance(n=n, s=GEN_S, K_target=GEN_K, seed=GEN_SEED)
    perm = np.random.default_rng(LABEL_SEED).permutation(n)
    # new coordinate a holds old perm[a]
    new = np.empty(n, dtype=np.int64)
    new[perm] = np.arange(n)            # old coordinate i moves to new[i]
    f1 = [[int(new[i]), int(new[j]), v] for i, j, v in ode.F1.entries()]
    f2 = [[int(new[i]), int(new[j // n] * n + new[j % n]), v]
          for i, j, v in ode.F2.entries()]
    rng = np.random.default_rng(seed)
    rng.shuffle(f1)
    rng.shuffle(f2)
    return {
        "n": n, "T": T, "epsilon": EPSILON,
        "u_in": ode.u_in[perm].tolist(),
        "F1_triplets": f1, "F2_triplets": f2,
        "solver": solver,
    }


def build_config(name: str, seed: int, **extra) -> RunConfig:
    return RunConfig.from_dict({**config_dict(name, seed), **extra})
