"""Entanglement-assisted capacities and classical channel simulation.

All entropies and rates are in bits. QCAP_THREADS, when set before the
first numpy import, caps the linear-algebra thread pools.
"""

import os as _os

_cap = _os.environ.get("QCAP_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .qmath import (
    EIG_ZERO_TOL,
    DensityOperator,
    DimensionMismatchError,
    InvalidChannelError,
    InvalidStateError,
    PureState,
    QuantumChannel,
    apply_channel,
    complementary_apply,
    entropy_exchange,
    entropy_exchange_via_purification,
    purify,
    quantum_mutual_information,
    tensor_channels,
    von_neumann_entropy,
)
from .channels import (
    ChannelSpec,
    Ensemble,
    amplitude_damping,
    classical_embedding,
    dephasing,
    depolarizing,
    erasure,
    maximally_entangled,
    noiseless,
    superdense_ensemble,
    switched_3to2,
)
from .capacity import (
    CeResult,
    ConvergenceError,
    EnergyConstraint,
    OptimizationCancelled,
    ad_asymptotics,
    ad_ce,
    ad_ch,
    bloch_grid_ce,
    ce_additivity_slack,
    ce_maximize,
    ce_maximize_constrained,
    concavity_slack,
    holevo_chi,
    pgm_error,
)
from .gaussian import (
    GaussianParams,
    ce_over_cshan_limit,
    ch_conjectured,
    coherent_bounds,
    g_entropy,
    gaussian_ce,
    shannon_capacity,
    squeezed_bounds,
)
from .typeclasses import (
    TypeClass,
    TypicalEigenstateSet,
    TypicalSubspaceReport,
    enumerate_types,
    joint_type,
    sample_from_type,
    type_of,
    typical_subspace_report,
)
from .reverse_shannon import (
    DMC,
    ProtocolConfig,
    SharedRandomness,
    Transcript,
    ba_capacity,
    bsc,
    bsc_capacity,
    bsc_simulate,
    constrained_mi,
    cost_statistics,
    dmc_simulate,
    empirical_faithfulness,
    exact_faithfulness_oracle,
)

__version__ = "0.1.0"
