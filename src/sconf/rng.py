"""Deterministic random streams.

Every stochastic operation in this package takes an explicit integer seed and
builds its generator here. Streams are Philox counter-based generators keyed
by (seed, *stream): the same key always reproduces the same draws bit for bit,
and distinct stream tags under one seed are statistically independent, so
parallel trials can share a seed without sharing state.
"""

import numpy as np

from .errors import check_int


def check_seed(seed):
    """int(seed), under errors.check_int with a minimum of 0."""
    return int(check_int(seed, "seed", 0))


def make_rng(seed, *stream):
    """Return a fresh numpy Generator for the given (seed, *stream) key; a
    seed that check_seed refuses is a ConfigError."""
    key = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(t) for t in stream))
    return np.random.Generator(np.random.Philox(key))
