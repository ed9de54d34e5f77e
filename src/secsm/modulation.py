"""Spatial-modulation codebook.

Each channel use carries log2(n_active * mod_order) bits: the high-order
bits pick the active antenna, the low-order bits pick a Gray-labeled PSK
symbol.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TxCodebook:
    """Enumeration of all (antenna, symbol) transmit hypotheses.

    labels[i] is the bit pattern carried by entry i; antennas[i] the
    0-based active-antenna index; symbols[i] the unit-energy PSK symbol;
    bit_errors[i, j] the number of bits in which labels i and j differ.
    """

    n_active: int
    mod_order: int
    labels: np.ndarray
    antennas: np.ndarray
    symbols: np.ndarray
    bit_errors: np.ndarray

    @property
    def size(self):
        return self.n_active * self.mod_order

    @property
    def bits_per_use(self):
        return int(math.log2(self.size))

    def effective_scalars(self, row):
        """Post-beamforming symbol hypotheses for 1 x n_active channel
        rows, along the last axis."""
        return row[..., self.antennas] * self.symbols


@functools.cache
def build_codebook(n_active, mod_order):
    """Enumerate the n_active * mod_order spatial-modulation hypotheses.

    PSK points s_k = exp(2j pi k / mod_order) carry Gray-coded symbol
    bits; the antenna index is encoded directly in the high-order bits.
    One instance per (n_active, mod_order) is shared by every caller, so
    its arrays are read-only.
    """
    for name, value in (("n_active", n_active), ("mod_order", mod_order)):
        if value < 1 or value & (value - 1):
            raise ValueError(f"{name} must be a power of 2, got {value}")
    if mod_order < 2:
        raise ValueError("mod_order must be at least 2")
    sym_bits = int(math.log2(mod_order))
    points = np.exp(2j * np.pi * np.arange(mod_order) / mod_order)
    antennas = np.repeat(np.arange(n_active), mod_order)
    k = np.tile(np.arange(mod_order), n_active)
    arrays = [(antennas << sym_bits) | (k ^ (k >> 1)), antennas, points[k]]
    # popcount of labels[i] ^ labels[j], one bit plane at a time
    diff = arrays[0][:, None] ^ arrays[0][None, :]
    arrays.append(sum((diff >> b) & 1
                      for b in range(int(math.log2(n_active * mod_order)))))
    for a in arrays:
        a.flags.writeable = False
    return TxCodebook(n_active, mod_order, *arrays)
