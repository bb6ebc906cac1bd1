"""Deterministic random-stream derivation.

Every stochastic component takes an explicit integer seed.  Array-heavy code
(formula generation, graph construction) runs on ``Generator(PCG64(seed))``;
the solver loop, which draws scalars only, runs on the stdlib Mersenne
Twister, ``random.Random(seed)``.  ``derive_seed`` below gives each component
its seed, so that a run is reproducible from its root seed alone.

Stream-split rule: a child stream is addressed by the root seed plus an
integer path.  The path is passed as the ``spawn_key`` of a numpy
``SeedSequence``, so distinct paths yield independent streams and the same
path always yields the same stream.  Experiment harnesses use the path layout

    (tag, n_index, alpha_index, instance_index[, repetition_index])

with the tags below, which keeps per-instance and per-repetition streams
independent of grid iteration order.  ``derive_seed`` refuses a root or path
entry that is not a non-negative ``int`` with ``cnf.check_count``'s
``ValueError``.
"""

from __future__ import annotations

import numpy as np

from .cnf import check_count

# path tags so different purposes never share a stream
TAG_GENERATE = 0
TAG_BUILD = 1
TAG_SOLVE = 2
TAG_ORDER = 3


def derive_seed(root: int, *path: int) -> int:
    """The integer seed of the stream addressed by (root, path): the first
    64-bit word of that address's ``SeedSequence``."""
    check_count("root seed", root)
    for i, entry in enumerate(path):
        check_count(f"path entry {i}", entry)
    state = np.random.SeedSequence(entropy=root, spawn_key=path).generate_state(1, np.uint64)
    return int(state[0])
