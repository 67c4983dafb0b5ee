"""ACM point configurations on (P^1)^n grids.

Deciders, tables and constructors for finite grid point configurations:
the combinatorial star criterion for the ACM property, an independent
Stanley-Reisner homological oracle, exact multigraded Hilbert functions
with first differences, and liaison-style constructions.
"""

from importlib.resources import files
from pathlib import Path

from .constructions import (
    DirectionForm,
    LiaisonInput,
    LiaisonResult,
    add_layer,
    liaison_addition,
    verify_hf_additivity,
    verify_layer_hf,
)
from .grid_model import (
    GridPoint,
    MultiDegree,
    PointSet,
    canonicalize,
    project,
)
from .hilbert_function import (
    HilbertTable,
    delta_table,
    evaluation_rank,
    hilbert_table,
)
from .level_structure import (
    LevelDecomposition,
    inclusion_property,
    interface_set,
    level_sets,
    max_level_size,
    remove_level,
)
from .reisner_oracle import (
    GridVariable,
    HomologyProfile,
    SimplicialComplex,
    first_cm_failure,
    homology,
    is_cm,
    link,
    sr_complex,
)
from .star_property import (
    Witness,
    check_star,
    combinatorial_box,
    find_path,
    hamming_distance,
    is_acm,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example configuration."""
    return Path(str(files("acmpts") / "fixtures" / name))
