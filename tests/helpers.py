"""Test doubles shared by the test modules."""

import numpy as np


class ZeroPolicy:
    """Always outputs the zero action; baseline for expert certification."""

    def __init__(self, action_dim: int):
        self.action_dim = action_dim

    def act(self, state) -> np.ndarray:
        return np.zeros(self.action_dim)
