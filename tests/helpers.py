"""Test doubles shared by the test modules."""

import numpy as np

from crsail.dataset import Standardizer


def identity_standardizer(d: int) -> Standardizer:
    """The map that leaves d-wide states as they are: (x - 0) / 1 is exact."""
    return Standardizer(np.zeros(d), np.ones(d))


def params_equal(a, b) -> bool:
    """Whether two MLP policies have bit-equal weights and biases."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("w1", "b1", "w2", "b2"))


def same_bits(a, b) -> bool:
    """Whether two arrays have the same dtype, shape and bytes (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class ZeroPolicy:
    """Always outputs the zero action; baseline for expert certification."""

    def __init__(self, action_dim: int):
        self.action_dim = action_dim

    def act(self, state) -> np.ndarray:
        return np.zeros(np.shape(state)[:-1] + (self.action_dim,))


class NoisyExpert:
    """Wraps an expert and adds seeded Gaussian noise to each of its labels.

    The generator advances by one draw per label, so a label depends on how
    many were asked for before it.
    """

    def __init__(self, expert, noise_std: float, seed: int = 0):
        self.expert = expert
        self.noise_std = noise_std
        self.rng = np.random.default_rng(seed)

    def act(self, state) -> np.ndarray:
        action = self.expert.act(state)
        return action + self.noise_std * self.rng.standard_normal(action.shape)


class FixedStart:
    """An environment whose every episode starts at `state`; the rest is `env`'s."""

    def __init__(self, env, state):
        self.env = env
        self.state = np.asarray(state, dtype=np.float64)

    def __getattr__(self, name):
        return getattr(self.env, name)

    def reset(self, rng) -> np.ndarray:
        return self.state.copy()
