"""Deterministic random streams.

Every stochastic operation in this package takes an explicit integer seed and
builds its generator here. Streams are Philox counter-based generators keyed
by (seed, *stream): the same key always reproduces the same draws bit for bit,
and distinct stream tags under one seed are statistically independent, so
parallel trials can share a seed without sharing state.
"""

import numpy as np

from .errors import ConfigError


def make_rng(seed, *stream):
    """Return a fresh numpy Generator for the given (seed, *stream) key; a
    negative seed is a ConfigError."""
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seeds must be nonnegative, got {seed}")
    key = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(t) for t in stream))
    return np.random.Generator(np.random.Philox(key))
