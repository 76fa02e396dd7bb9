"""
qcradle: quantum Newton's cradle on finite hopping chains.

A single excitation launched at one end of an open chain bounces between the
ends like the outer spheres of a Newton's cradle.  The package builds the
chain families that control how well the bounce survives dispersion (uniform,
perfect-transfer, edge-weakened, Gaussian-trapped), diagonalizes them, evolves
states exactly by spectral synthesis, optimizes the boundary couplings for
maximal end-to-end transfer, and validates the whole effective picture
against exact two-species Bose-Hubbard dynamics on small lattices.
"""

__version__ = "0.1.0"

from .chains import (
    ChainSpec,
    DEFAULT_TRAP_SIGN,
    WaveState,
    edge_modified_chain,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    mirror_symmetric,
    pst_chain,
    uniform_chain,
)
from .dynamics import (
    EvolutionGrid,
    TransferReport,
    edge_exposure,
    end_amplitude,
    evolution_grid,
    evolve,
    peak_transfer,
    revival_fidelity,
)
from .errors import (
    DegenerateSpectrumError,
    DegenerateStateError,
    MirrorSymmetryError,
    NotFreeFermionError,
    TooLargeError,
)
from .hubbard import (
    EffectiveParams,
    FockBasis,
    HubbardParams,
    OracleReport,
    build_hamiltonian,
    compare_effective,
    effective_params,
    enumerate_basis,
    reduce_to_chain,
)
from .spectral import (
    ParitySignature,
    Spectrum,
    diagonalize,
    linearity_deviation,
    mirror_parity,
    mode_overlaps,
    pseudo_wavevectors,
)
from .tuner import TuneResult, flatness_probe, tune_double, tune_single

__all__ = [
    "__version__",
    "ChainSpec",
    "WaveState",
    "Spectrum",
    "ParitySignature",
    "EvolutionGrid",
    "TransferReport",
    "TuneResult",
    "HubbardParams",
    "EffectiveParams",
    "FockBasis",
    "OracleReport",
    "DEFAULT_TRAP_SIGN",
    "uniform_chain",
    "pst_chain",
    "edge_modified_chain",
    "gaussian_trap_chain",
    "kick_state",
    "gaussian_wavepacket",
    "mirror_symmetric",
    "diagonalize",
    "mirror_parity",
    "pseudo_wavevectors",
    "linearity_deviation",
    "mode_overlaps",
    "evolve",
    "evolution_grid",
    "end_amplitude",
    "peak_transfer",
    "revival_fidelity",
    "edge_exposure",
    "tune_single",
    "tune_double",
    "flatness_probe",
    "effective_params",
    "reduce_to_chain",
    "enumerate_basis",
    "build_hamiltonian",
    "compare_effective",
    "DegenerateStateError",
    "DegenerateSpectrumError",
    "MirrorSymmetryError",
    "NotFreeFermionError",
    "TooLargeError",
]
