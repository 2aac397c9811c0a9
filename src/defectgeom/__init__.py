"""defectgeom: a numerical geometry engine for crystal defects.

Dislocations are represented as torsion of a material coframe, disclinations
as curvature of its spin connection. The package provides an exterior
calculus kernel on regular grids, canonical defect configurations with
topological charge extraction, residual diagnostics for the governing field
equations and conservation laws, overdamped dislocation-line dynamics with a
curvature-induced transverse force, and reconnection bookkeeping with
curvature-screened Burgers exchange.
"""

__version__ = "0.1.0"

from .forms import (
    ANTISYM,
    SCALAR,
    VECTOR,
    FormField,
    GridSpec,
    covariant_exterior_derivative,
    exterior_derivative,
    hodge_star,
    identity_coframe,
    integrate_loop,
    integrate_surface,
    interior_product,
    wedge,
    zero_connection,
)
from .geometry import Box, Circle, Disk, ParametricSurface, box_integral
from .defects import (
    CartanFields,
    DefectConfiguration,
    DefectSpec,
    axial_vector,
    build_coframe,
    build_connection,
    burgers_vector,
    curvature,
    frank_angles,
    screened_circulation,
    torsion,
)
from .field_theory import (
    ActionBreakdown,
    Couplings,
    Residual,
    U1Sources,
    action_density,
    bianchi_residuals,
    el_coframe_residual,
    el_connection_residual,
    embed_static_4d,
    field_norms,
    u1_flux_balance,
    u1_sources,
)
from .dynamics import (
    CROSS_PRODUCT,
    DERIVATION_CONSISTENT,
    DisclinationField,
    DisclinationSource,
    DislocationLine,
    DynamicsParams,
    magnus_force,
    solve_velocity,
    step_lines,
)
from .network import (
    ReconnectionEvent,
    charge_ledger,
    curvature_screened_flux,
    detect_and_reconnect,
    reconnect,
)
from .io import read_field, write_csv, write_field
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
