"""Closed-form receive beamformers for Bob.

Four constructions against the jamming attacker, in increasing order of
how much interference structure they use:

  max_rp      dominant eigenvector of the signal Gram H T T^H H^H,
              treating interference plus noise as white
  max_wfrp    the same maximization after whitening with the exact
              interference-plus-noise covariance
  max_rp_zfc  receive-power maximization restricted to the null space of
              the jamming channel (zero-forcing constraint)
  max_sjnr    dominant generalized eigenvector of the signal Gram against
              the interference-plus-noise covariance

Each takes (chset, cfg, noise_var, p_m), an operating point that only
max_wfrp and max_sjnr read, and returns a Beamformer whose `u` is the
unit combining vector applied to the raw receive vector, for one
realization or, bit for bit, for each of a stacked ChannelSet.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import _cfg_point, _side_terms
from .numerics import (canonical_phase, conj_transpose, gen_max_eigvec,
                       max_eigvec_hermitian, null_space_basis, unit_rows,
                       whitening_matrix)


class Method(Enum):
    MAX_RP = "max_rp"
    MAX_WFRP = "max_wfrp"
    MAX_RP_ZFC = "max_rp_zfc"
    MAX_SJNR = "max_sjnr"


@dataclass(frozen=True)
class Beamformer:
    """A receive combining vector (unit norm, canonical phase) applied to
    the raw receive vector, or a stack of them, one row per build."""

    u: np.ndarray


def max_rp(chset, cfg, noise_var, p_m):
    """Maximum receive power: dominant eigenvector of H T T^H H^H,
    treating interference plus noise as white."""
    return Beamformer(u=max_eigvec_hermitian(chset.HTHT))


def max_wfrp(chset, cfg, noise_var, p_m):
    """Whitening-filter receive-power maximization.

    Whitens the interference-plus-noise covariance with its Hermitian
    inverse square root W (rescaled to unit largest entry, which keeps
    the products finite), maximizes receive power in the whitened domain,
    and returns the effective combining vector W^H w.
    """
    W = whitening_matrix(_side_terms(chset, cfg, "bob", p_m)[1], noise_var)
    W = W / np.abs(W).max(axis=(-2, -1), keepdims=True)
    HT_w = W @ chset.HT
    w = max_eigvec_hermitian(HT_w @ conj_transpose(HT_w))
    return Beamformer(u=canonical_phase(unit_rows(
        (conj_transpose(W) @ w[..., None])[..., 0])))


def max_rp_zfc(chset, cfg, noise_var, p_m):
    """Receive-power maximization under a jamming zero-forcing constraint.

    Restricts the combiner to the null space of F P_JM, spanned by the
    orthonormal columns of U, and maximizes receive power there: u = U eta
    with eta the dominant eigenvector of U^H H T T^H H^H U. F P_JM has
    full column rank n_mallory - 1 for a Gaussian F, so U takes that
    rank without reading singular values, and a stack builds whatever
    the numerical ranks of its matrices. Raises ValueError when the
    jamming subspace fills the receive space.
    """
    jam = chset.F_JM
    U = null_space_basis(jam, rank=cfg.n_mallory - 1)
    if U.shape[-1] == 0:
        raise ValueError(
            f"ZFC infeasible: {jam.shape[-1]} jamming streams fill the "
            f"{jam.shape[-2]}-dimensional receive space")
    eta = max_eigvec_hermitian(conj_transpose(U) @ chset.HTHT @ U)
    return Beamformer(u=canonical_phase(unit_rows((U @ eta[..., None])
                                                  [..., 0])))


def max_sjnr(chset, cfg, noise_var, p_m):
    """Maximum signal-to-jamming-plus-noise ratio: dominant generalized
    eigenvector of the signal Gram against the interference-plus-noise
    covariance."""
    V = _side_terms(chset, cfg, "bob", p_m)[1]
    return Beamformer(u=gen_max_eigvec(chset.HTHT, V, noise_var))


_BUILDERS = {
    Method.MAX_RP: max_rp,
    Method.MAX_WFRP: max_wfrp,
    Method.MAX_RP_ZFC: max_rp_zfc,
    Method.MAX_SJNR: max_sjnr,
}


def compute_beamformer(method, chset, cfg, point=None):
    """Build the beamformer for `method` on a channel realization, or on
    each of a stack of them (a ChannelSet with leading axes).

    point is (noise_var, p_m), Bob's noise variance and the jamming
    power, cfg's own by default. Arrays of them broadcast against
    chset's leading axes, and u takes the result less any axis its
    method does not read; each row equals a build at its point alone
    bit for bit.
    """
    noise_var, p_m = _cfg_point(cfg, "bob") if point is None else point
    return _BUILDERS[Method(method)](chset, cfg, noise_var, p_m)
