"""vfzero: certified zero blocks, winding-number indices, and tracking
checks for exact planar and torus vector fields."""

__version__ = "0.1.0"

from .intervals import Box, Interval, Rational
from .expr import Expr, parse_expr, divide_exact, ParseError, DomainError
from .fields import (
    VectorField,
    JacobianMatrix,
    jacobian,
    lie_bracket,
    wedge,
    dot,
    parse_field,
    euler_field,
)
from .blocks import (
    BoundaryLoop,
    CertifyResult,
    IsolationResult,
    Segment,
    ZeroBlock,
    certify_isolating,
    common_zero_blocks,
    isolate_zeros,
    scalar_zero_blocks,
)
from .errors import (
    CertificationError,
    FalsificationError,
    FlowEscapeError,
    SeedRefinementError,
)
from .winding import (
    IndexReport,
    TransferReport,
    block_index,
    index_transfer_check,
    region_boundary_loop,
    region_index,
    winding_number,
)
from .tracking import (
    NOT_TRACKING,
    POLY_TRACKING,
    RATIONAL_TRACKING,
    DepSetResult,
    TrackReport,
    bracket_closure_track,
    dep_set,
    track_check,
)
from .flows import Trajectory, flow_integrate, rk4_convergence_ratio
from .report import emit_report, render_report
from .harness import (
    CatalogEntry,
    InvarianceReport,
    MainTheoremReport,
    PoincareHopfReport,
    StabilityReport,
    builtin_catalog,
    invariance_test,
    load_catalog,
    main_theorem_check,
    poincare_hopf_check,
    refine_seed,
    stability_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
