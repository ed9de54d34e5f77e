"""Link-level simulator and solver library for secure spatial modulation
against a full-duplex jamming eavesdropper.

The attacker simultaneously intercepts the spatial-modulation stream and
jams the legitimate receiver; this package builds the four closed-form
receive beamformers that counter it and estimates secrecy rate, BER and
SJNR by Monte-Carlo simulation.
"""

from .beamformers import (Beamformer, Method, compute_beamformer, max_rp,
                          max_rp_zfc, max_sjnr, max_wfrp)
from .channel import (ChannelSet, SystemConfig, build_an_projection,
                      build_mallory_chain, build_tas_matrix, crandn,
                      derive_rng, realize_channels, sample_channels)
from .harness import (ConfigError, SweepSpec, default_config_text,
                      emit_config, parse_config, run_sweep, write_outputs)
from .metrics import MetricsRecord, mutual_info_mc, scalar_channel, sjnr
from .modulation import build_codebook
from .numerics import (NotHermitianError, NotPositiveDefiniteError,
                       canonical_phase, gen_max_eigvec, max_eigvec_hermitian,
                       null_space_basis, whitening_matrix)

__version__ = "0.4.3"
# Recorded in run manifests and in perfbench/run.py's report, the one
# reason it stays: the MI kernel, metrics.mi_inner_mean, is numpy.
kernel_backend = "numpy"
