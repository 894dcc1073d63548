"""kcx: exact connections, curvature and torsion over affine presentations.

The package is layered bottom-up:

- `fields`, `poly`, `parse`: exact arithmetic and the expression grammar
- `groebner`, `linsolve`: normal forms for ideals/submodules, exact solving
- `algebra`, `modules`: presented algebras and modules, differentials, tensors
- `tangent`: tangent algebras, bundles and their structure maps
- `connections`, `curvature`, `solve`, `dualnum`: the geometry on top
- `workspace`, `cli`, `gallery`: definition files, commands, worked examples

`import kcx` loads the engine, every layer but the last.  The last layer
loads on first use: `kcx.cli` and `kcx.gallery` when imported, and
`workspace` when one of its names (`Workspace`, `parse_workspace`,
`render_workspace`) is first read from `kcx`.  No engine module imports it.
"""

import types as _types

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    PresentedAlgebra,
    compose_morphisms,
    identity_morphism,
    localize,
    make_algebra,
    make_morphism,
    tensor_over_base,
)
from .connections import (
    AxiomReport,
    Connection,
    apply_connection,
    connection_equal,
    free_canonical_connection,
    from_horizontal,
    make_connection,
    pullback_connection,
    retract_connection,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
    vertical_from_horizontal,
)
from .curvature import (
    check_curvature_correspondence,
    check_torsion_correspondence,
    module_curvature,
    module_torsion,
    tangent_curvature,
    tangent_torsion,
)
from .dualnum import dual_bundle, dual_connection_solve, dual_numbers_structure
from .errors import (
    BaseMismatch,
    BracketingConditionFailure,
    KcxError,
    ModuleNotKahler,
    SectionRetractionFailure,
    SolverTooLarge,
    WellDefinednessFailure,
)
from .fields import GF, QQ, Field
from .groebner import IdealBasis, ModuleBasis
from .linsolve import AffineSolutionSpace, LinearEquation, affine_linear_solve
from .modules import (
    ModuleElement,
    ModuleMorphism,
    PresentedModule,
    free_module,
    kahler_module,
    make_module,
    tensor_modules,
    universal_derivation,
    wedge_square,
)
from .parse import ParseError, poly_normalize
from .poly import Polynomial
from .solve import glued_connection_check, solve_connection_space
from .tangent import (
    bracketing,
    bundle_combine,
    bundle_context,
    tangent_algebra,
    tangent_apply_functor,
    tangent_structure_maps,
)

# names of the definition-file layer: `__getattr__` imports it on the first
# read and then reads each name off `kcx.workspace` itself, never a copy
_WORKSPACE_NAMES = ("Workspace", "parse_workspace", "render_workspace")

# the names imported above and the lazy ones; the submodules the imports bind
# are not exported
__all__ = sorted(
    [
        *(
            name
            for name, value in globals().items()
            if not name.startswith("_") and not isinstance(value, _types.ModuleType)
        ),
        *_WORKSPACE_NAMES,
    ]
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _WORKSPACE_NAMES:
        from . import workspace

        return getattr(workspace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
