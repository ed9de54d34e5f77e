"""Channel realizations and the derived transmit-side matrices.

A realization bundles the four i.i.d. Rayleigh channel matrices with
everything derived from them: the max-norm antenna selection, the
artificial-noise projection aimed at Bob's null space, and the attacker's
receive vector / self-interference-free jamming precoder pair.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .numerics import conj_transpose, max_eigvec_hermitian, null_space_basis

# rng stream tag for channel sampling; the sweep harness draws its BER
# trials on tag 3.
CHANNEL_STREAM = 0

AN_MODES = ("nullspace", "random")


def derive_rng(seed, *path):
    """Independent generator for one work item.

    Splittable seeding from (seed, path) keeps parallel trials
    reproducible regardless of scheduling or worker count.
    """
    return np.random.default_rng([int(seed)] + [int(p) for p in path])


def crandn(rng, *shape):
    """Circularly-symmetric complex Gaussian draws, unit variance."""
    return math.sqrt(0.5) * (rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters for one simulated link.

    n_tx          total transmit antennas at Alice
    n_rx          receive antennas at Bob
    n_mallory     antennas at the full-duplex attacker
    power         Alice transmit power [W]
    power_mallory jamming power [W]
    beta          fraction of Alice's power spent on the data symbol,
                  the rest carries artificial noise
    noise_var_bob receiver noise variance at Bob
    noise_var_eve receiver noise variance at the attacker
    mod_order     PSK constellation size
    seed          base seed for all derived rng streams

    power_mallory and the noise variances are the single-point calls'
    operating point (metrics._cfg_point); a sweep passes arrays instead.
    n_active, the active transmit antennas, is 2^floor(log2 n_tx).
    an_var = jam_var = 1: P_AN and P_JM have unit trace.
    """

    n_tx: int = 8
    n_rx: int = 6
    n_mallory: int = 2
    power: float = 10.0
    power_mallory: float = 1.0
    beta: float = 0.5
    noise_var_bob: float = 1.0
    noise_var_eve: float = 1.0
    mod_order: int = 4
    seed: int = 1
    an_var = jam_var = 1.0  # class constants, not fields

    def __post_init__(self):
        if self.n_tx < 1:
            raise ValueError("n_tx must be at least 1")
        if self.n_rx < 1:
            raise ValueError("n_rx must be at least 1")
        if self.n_mallory < 2:
            raise ValueError("n_mallory must be at least 2: the attacker "
                             "jams on n_mallory - 1 streams")
        if self.mod_order < 2 or self.mod_order & (self.mod_order - 1):
            raise ValueError("mod_order must be a power of 2, at least 2")
        for name in ("power", "power_mallory", "noise_var_bob",
                     "noise_var_eve"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        # 1e308 W overflows the attacker's AN power; as for p_m_list
        if self.power > 1e300:
            raise ValueError("power must be at most 1e300 W")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def n_active(self):
        """Active transmit antennas: the largest power of 2 <= n_tx."""
        return 1 << (self.n_tx.bit_length() - 1)


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization plus its derived precoders.

    H       n_rx x n_tx, Alice -> Bob
    G       n_mallory x n_tx, Alice -> attacker
    F       n_rx x n_mallory, attacker -> Bob
    M_self  n_mallory x n_mallory attacker self-interference channel
    T       n_tx x n_active 0/1 antenna-selection matrix
    P_AN    artificial-noise projection, n_active x (n_active - n_rx)
            with null-space AN, n_active x n_active with random AN
    u_er    attacker's unit receive vector
    P_JM    n_mallory x (n_mallory - 1) jamming precoder with
            u_er^H M_self P_JM = 0

    The channel products every SNR and jamming-power point reuses are
    computed on first use and kept, read-only: HT = H T, HTHT = HT HT^H
    (Bob's signal Gram, which every beamformer but max_wfrp maximizes),
    GT = G T, HT_AN = HT P_AN, GT_AN = GT P_AN, F_JM = F P_JM,
    M_JM = M_self P_JM. Stacked realizations (stack_channels) take one
    stacked matmul per product, each matrix its realization's bit for bit.
    """

    H: np.ndarray
    G: np.ndarray
    F: np.ndarray
    M_self: np.ndarray
    T: np.ndarray
    P_AN: np.ndarray
    u_er: np.ndarray
    P_JM: np.ndarray

    HT = cached_property(lambda self: _read_only(self.H @ self.T))
    HTHT = cached_property(
        lambda self: _read_only(self.HT @ conj_transpose(self.HT)))
    HT_AN = cached_property(lambda self: _read_only(self.HT @ self.P_AN))
    GT = cached_property(lambda self: _read_only(self.G @ self.T))
    GT_AN = cached_property(lambda self: _read_only(self.GT @ self.P_AN))
    F_JM = cached_property(lambda self: _read_only(self.F @ self.P_JM))
    M_JM = cached_property(lambda self: _read_only(self.M_self @ self.P_JM))


def stack_channels(chsets):
    """The ChannelSets of realizations as one, each field stacked on axis 0."""
    return ChannelSet(*(np.array([getattr(c, f.name) for c in chsets])
                        for f in fields(ChannelSet)))


def _read_only(a):
    a.flags.writeable = False
    return a


def sample_channels(cfg, rng):
    """Draw one set of i.i.d. unit-variance Rayleigh channel matrices.

    Returns (H, G, F, M_self); deterministic given the generator state.
    """
    H = crandn(rng, cfg.n_rx, cfg.n_tx)
    G = crandn(rng, cfg.n_mallory, cfg.n_tx)
    F = crandn(rng, cfg.n_rx, cfg.n_mallory)
    M_self = crandn(rng, cfg.n_mallory, cfg.n_mallory)
    return H, G, F, M_self


def build_tas_matrix(H, n_active):
    """Antenna selection keeping the n_active largest-norm columns of H.

    Ties go to the lower antenna index; the selected columns keep their
    original order, so T is n_tx x n_active with one 1 per column.
    """
    n_tx = H.shape[1]
    if n_active > n_tx:
        raise ValueError(f"cannot select {n_active} of {n_tx} antennas")
    norms = np.sum(np.abs(H) ** 2, axis=0)
    order = np.argsort(-norms, kind="stable")[:n_active]
    return np.eye(n_tx)[:, np.sort(order)]


def build_an_projection(H, T, mode="nullspace", rng=None):
    """Artificial-noise projection matrix, scaled to unit trace.

    In "nullspace" mode the columns form an orthonormal basis of the
    null space of the effective channel H T (so Bob never sees the AN):
    n_active x (n_active - rank(H T)). In "random" mode the matrix is a
    scaled n_active x n_active random unitary, which leaks AN into Bob's
    receiver. Either way trace(P_AN P_AN^H) = 1.
    """
    if mode not in AN_MODES:
        raise ValueError(f"unknown AN mode {mode!r}; expected one of {AN_MODES}")
    n_active = T.shape[1]
    if mode == "random":
        if rng is None:
            raise ValueError("random AN mode needs an rng")
        Q, R = np.linalg.qr(crandn(rng, n_active, n_active))
        Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
        return Q / math.sqrt(n_active)
    effective = H @ T
    # Null space of the operator H T = complement of the columns of (H T)^H.
    basis = null_space_basis(effective.conj().T)
    width = basis.shape[1]
    if width == 0:
        raise ValueError(
            "AN null space empty: n_active must exceed n_rx for "
            "null-space artificial noise")
    return basis / math.sqrt(width)


def build_mallory_chain(G, T, M_self):
    """The attacker's receive vector and jamming precoder.

    u_er maximizes intercepted signal power (dominant eigenvector of
    G T T^H G^H); P_JM spans the orthogonal complement of M_self^H u_er,
    which cancels the attacker's self-interference exactly, scaled so
    trace(P_JM P_JM^H) = 1. Should M_self^H u_er vanish, P_JM is the
    leading n_mallory - 1 identity columns.
    """
    n_mallory = G.shape[0]
    if n_mallory < 2:
        raise ValueError("the attacker needs at least 2 antennas to jam")
    GT = G @ T
    u_er = max_eigvec_hermitian(GT @ GT.conj().T)
    back = (M_self.conj().T @ u_er).reshape(-1, 1)
    basis = null_space_basis(back)[:, :n_mallory - 1]
    return u_er, basis / math.sqrt(n_mallory - 1)


def realize_channels(cfg, index, an_mode="nullspace"):
    """Build the full ChannelSet for one realization index.

    Deterministic in (cfg.seed, index): parallel sweeps may realize any
    subset of indices in any order and still agree with a serial run.
    """
    rng = derive_rng(cfg.seed, CHANNEL_STREAM, index)
    H, G, F, M_self = sample_channels(cfg, rng)
    T = build_tas_matrix(H, cfg.n_active)
    P_AN = build_an_projection(H, T, mode=an_mode, rng=rng)
    u_er, P_JM = build_mallory_chain(G, T, M_self)
    return ChannelSet(H=H, G=G, F=F, M_self=M_self, T=T, P_AN=P_AN,
                      u_er=u_er, P_JM=P_JM)
