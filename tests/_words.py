"""Structured word sets the tests feed to the transforms and the runtime."""

import numpy as np


def boundary_words64():
    """Exponent field at both edges of every prefix class, both signs,
    extreme and near-extreme mantissas."""
    ws = []
    for p in range(32):
        for e in (64 * p, 64 * p + 63):
            for m in (0, 1, (1 << 52) - 1):
                for s in (0, 1 << 63):
                    ws.append(s | (e << 52) | m)
    return np.array(sorted(set(ws)), dtype=np.uint64)


def boundary_words32():
    ws = []
    for p in range(16):
        for e in (16 * p, 16 * p + 15):
            for m in (0, 1, (1 << 23) - 1):
                for s in (0, 1 << 31):
                    ws.append(s | (e << 23) | m)
    return np.array(sorted(set(ws)), dtype=np.uint32)
