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

Each returns a Beamformer whose `u` is the unit combining vector applied
to the raw receive vector.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import _side_terms
from .numerics import (canonical_phase, gen_max_eigvec, max_eigvec_hermitian,
                       null_space_basis, whitening_matrix)


class Method(Enum):
    MAX_RP = "max_rp"
    MAX_WFRP = "max_wfrp"
    MAX_RP_ZFC = "max_rp_zfc"
    MAX_SJNR = "max_sjnr"


@dataclass(frozen=True)
class Beamformer:
    """A receive combining vector: unit norm, canonical phase, applied
    to the raw receive vector."""

    u: np.ndarray


def _signal_gram(chset):
    return chset.HT @ chset.HT.conj().T


def max_rp(chset, cfg):
    """Maximum receive power: dominant eigenvector of H T T^H H^H,
    treating interference plus noise as white."""
    v, _ = max_eigvec_hermitian(_signal_gram(chset))
    return Beamformer(u=v)


def max_wfrp(chset, cfg):
    """Whitening-filter receive-power maximization.

    Whitens the interference-plus-noise covariance with its Hermitian
    inverse square root W (rescaled to unit largest entry, which keeps
    the products finite), maximizes receive power in the whitened domain,
    and returns the effective combining vector W^H w.
    """
    _, V, noise_var = _side_terms(chset, cfg, "bob")
    W = whitening_matrix(V, noise_var)
    W = W / np.abs(W).max()
    HT_w = W @ chset.HT
    w, _ = max_eigvec_hermitian(HT_w @ HT_w.conj().T)
    u = W.conj().T @ w
    return Beamformer(u=canonical_phase(u / np.linalg.norm(u)))


def max_rp_zfc(chset, cfg):
    """Receive-power maximization under a jamming zero-forcing constraint.

    Restricts the combiner to the null space of F P_JM, spanned by the
    orthonormal columns of U, and maximizes receive power there: u = U eta
    with eta the dominant eigenvector of U^H H T T^H H^H U. Raises
    ValueError when the jamming subspace has full row rank.
    """
    jam = chset.F_JM
    U = null_space_basis(jam)
    if U.shape[1] == 0:
        raise ValueError(
            f"ZFC infeasible: {jam.shape[1]} jamming streams fill the "
            f"{jam.shape[0]}-dimensional receive space")
    eta, _ = max_eigvec_hermitian(U.conj().T @ _signal_gram(chset) @ U)
    u = U @ eta
    return Beamformer(u=canonical_phase(u / np.linalg.norm(u)))


def max_sjnr(chset, cfg):
    """Maximum signal-to-jamming-plus-noise ratio: dominant generalized
    eigenvector of the signal Gram against the interference-plus-noise
    covariance."""
    _, V, noise_var = _side_terms(chset, cfg, "bob")
    v, _ = gen_max_eigvec(_signal_gram(chset), V, noise_var)
    return Beamformer(u=v)


# methods that read nothing of the operating point (SNR, P_M)
POINT_FREE = frozenset({Method.MAX_RP, Method.MAX_RP_ZFC})
_BUILDERS = {
    Method.MAX_RP: max_rp,
    Method.MAX_WFRP: max_wfrp,
    Method.MAX_RP_ZFC: max_rp_zfc,
    Method.MAX_SJNR: max_sjnr,
}


def compute_beamformer(method, chset, cfg):
    """Build the beamformer for `method` on one channel realization."""
    return _BUILDERS[Method(method)](chset, cfg)
