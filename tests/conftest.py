import struct
import zlib

import numpy as np
import pytest

from gmfs.bellman import MAGIC
from gmfs.diagnostics import small_env
from gmfs.env import linear_env, warehouse_env


@pytest.fixture(scope="session")
def warehouse():
    return warehouse_env()


@pytest.fixture(scope="session")
def small():
    """2-state 2-action linear-in-g env, gamma 0.9, brute-force enumerable."""
    return small_env(gamma=0.9)


@pytest.fixture(scope="session")
def action_blind():
    """Marginal-sufficient env whose kernel ignores the agent's own action;
    on it the joint-mode fixed point is exactly fiber-constant."""
    row = np.array([
        [[0.85, 0.15], [0.55, 0.45]],
        [[0.75, 0.25], [0.35, 0.65]],
    ])
    kernel = np.stack([row, row], axis=1)  # identical for both actions
    rewards = np.array([
        [[1.0, 0.4], [1.8, 0.2]],
        [[0.7, 0.9], [0.3, 1.5]],
    ])
    return linear_env("action-blind", kernel, rewards, discount=0.9)


@pytest.fixture(scope="session")
def huge_header_qtable():
    """A sealed marginal-mode q-table file whose header claims |S| = kappa
    = 2^16 over a payload of one value."""
    body = (MAGIC + struct.pack("<BIII", 1, 2**16, 1, 2**16)
            + struct.pack("<ddQ", 0.9, 0.0, 0) + struct.pack("<I", 0) + b"\x00" * 8)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
