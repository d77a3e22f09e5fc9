"""Uncertainty-disturbance trade-offs for sequential projective measurements.

Density matrices and bases are immutable and validated at construction;
everything else is pure functions of them, arrays and plain numbers:
divergences of a state from its dephased state, uncertainty measures, the
relation catalog with duals and counterexample search, and Monte-Carlo
experiment drivers. All stochastic entry points take explicit integer seeds.
"""

from .divergence import DIVERGENCE_KINDS
from .errors import QudError
from .experiments import (
    VolumeEstimate,
    coherence_bounds,
    estimate_coherence,
    estimate_volume,
    estimate_volumes,
    region_grid,
    simulate_shots,
)
from .qstate import (
    DensityMatrix,
    OrthonormalBasis,
    fourier_basis,
    make_basis,
    make_density,
    standard_basis,
)
from .relations import (
    Counterexample,
    RELATION_IDS,
    RelationId,
    RelationVerdict,
    eval_with_dual,
    search_counterexample,
    table2_relations,
)

__version__ = "0.1.0"

__all__ = [
    "Counterexample",
    "DIVERGENCE_KINDS",
    "DensityMatrix",
    "OrthonormalBasis",
    "QudError",
    "RELATION_IDS",
    "RelationId",
    "RelationVerdict",
    "VolumeEstimate",
    "coherence_bounds",
    "estimate_coherence",
    "estimate_volume",
    "estimate_volumes",
    "eval_with_dual",
    "fourier_basis",
    "make_basis",
    "make_density",
    "region_grid",
    "search_counterexample",
    "simulate_shots",
    "standard_basis",
    "table2_relations",
]
