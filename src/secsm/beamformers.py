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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import noise_cov_bob
from .numerics import (canonical_phase, gen_max_eigvec, max_eigvec_hermitian,
                       null_space_basis, whitening_matrix)


class Method(Enum):
    MAX_RP = "max_rp"
    MAX_WFRP = "max_wfrp"
    MAX_RP_ZFC = "max_rp_zfc"
    MAX_SJNR = "max_sjnr"


class ZfcInfeasibleError(RuntimeError):
    """The jamming subspace fills Bob's receive space; zero-forcing is
    impossible for this realization."""


@dataclass(frozen=True)
class Beamformer:
    """A receive combining vector with its achieved objective.

    u is unit norm with canonical phase and multiplies the raw receive
    vector.
    """

    method: Method
    u: np.ndarray
    objective: float


def _signal_gram(chset):
    return chset.HT @ chset.HT.conj().T


def max_rp(chset, cfg):
    """Maximum receive power: dominant eigenvector of H T T^H H^H.

    The reported objective is the white-noise SJNR approximation
    beta P lambda / (sigma_w^2 n_active) with sigma_w^2 the average
    interference-plus-noise power per receive antenna; the scalar does
    not affect the maximizer.
    """
    v, lam = max_eigvec_hermitian(_signal_gram(chset))
    sigma_w = float(np.real(np.trace(noise_cov_bob(chset, cfg)))) / cfg.n_rx
    if sigma_w > 0.0:
        obj = cfg.beta * cfg.power * lam / (sigma_w * cfg.n_active)
    else:
        obj = math.inf  # degenerate noiseless, interference-free case
    return Beamformer(method=Method.MAX_RP, u=v, objective=obj)


def max_wfrp(chset, cfg):
    """Whitening-filter receive-power maximization.

    Whitens the interference-plus-noise covariance, maximizes receive
    power in the whitened domain, and returns the effective combining
    vector W^H w for the raw receive signal. The objective
    beta P lambda / n_active equals the achieved SJNR.
    """
    R_w = noise_cov_bob(chset, cfg)
    W = whitening_matrix(R_w)
    HT_w = W @ chset.HT
    w, lam = max_eigvec_hermitian(HT_w @ HT_w.conj().T)
    u = W.conj().T @ w
    u = canonical_phase(u / np.linalg.norm(u))
    obj = cfg.beta * cfg.power * lam / cfg.n_active
    return Beamformer(method=Method.MAX_WFRP, u=u, objective=obj)


def max_rp_zfc(chset, cfg):
    """Receive-power maximization under a jamming zero-forcing constraint.

    Restricts the combiner to the null space of F P_JM, then maximizes
    receive power there via the basis-reduced eigenproblem
    A = (U^H U)^{-1} (beta P U^H H T T^H H^H U). Raises
    ZfcInfeasibleError when the jamming subspace has full row rank.
    """
    jam = chset.F_JM
    U = null_space_basis(jam)
    if U.shape[1] == 0:
        raise ZfcInfeasibleError(
            f"ZFC infeasible: {jam.shape[1]} jamming streams fill the "
            f"{jam.shape[0]}-dimensional receive space")
    S = _signal_gram(chset)
    scaled = cfg.beta * cfg.power * (U.conj().T @ S @ U)
    A = np.linalg.inv(U.conj().T @ U) @ scaled
    eta, _ = max_eigvec_hermitian(A)
    u = U @ eta
    u = canonical_phase(u / np.linalg.norm(u))
    obj = (cfg.beta * cfg.power / cfg.n_active
           * float(np.real(u.conj() @ S @ u)))
    return Beamformer(method=Method.MAX_RP_ZFC, u=u, objective=obj)


def max_sjnr(chset, cfg):
    """Maximum signal-to-jamming-plus-noise ratio.

    Dominant generalized eigenvector of the scaled signal Gram against
    the interference-plus-noise covariance; the objective is the achieved
    SJNR itself.
    """
    num = (cfg.beta * cfg.power / cfg.n_active) * _signal_gram(chset)
    v, ratio = gen_max_eigvec(num, noise_cov_bob(chset, cfg))
    return Beamformer(method=Method.MAX_SJNR, u=v, objective=ratio)


_BUILDERS = {
    Method.MAX_RP: max_rp,
    Method.MAX_WFRP: max_wfrp,
    Method.MAX_RP_ZFC: max_rp_zfc,
    Method.MAX_SJNR: max_sjnr,
}


def compute_beamformer(method, chset, cfg):
    """Build the beamformer for `method` on one channel realization."""
    return _BUILDERS[Method(method)](chset, cfg)
