"""Wang tilesets on Baumslag-Solitar groups from rational piecewise affine maps."""

from .errors import (
    BadRange,
    BsDominoError,
    EnumerationTooLarge,
    OrbitTooShort,
    OutsideDomain,
    OutsidePiece,
    ParseError,
)
from .group import (
    BsParams,
    GroupElement,
    IDENTITY_ELEMENT,
    alpha,
    beta,
    britton_reduce,
    element_from_text,
    inverse,
    lambda_val,
    multiply,
    phi,
)
from .rationals import Mat2, Vec2, mat2, vec2
from .balrep import BalancedWindow, average_error, b_k, window
from .pam import (
    AffinePiece,
    AliveUpTo,
    CycleDetected,
    EscapedAfter,
    OrbitReport,
    PiecewiseAffineMap,
    UnitSquare,
    evaluate,
    load_map,
    locate_piece,
    map_from_dict,
    map_to_dict,
    orbit,
)
from .tileset import (
    EllBounds,
    RowColors,
    Tile,
    Tileset,
    color_denominator,
    edge_colors,
    enumerate_tileset,
    export_tileset,
    parse_tileset,
    verify_tileset,
)
from .tiling import (
    BudgetExceeded,
    Constraint,
    ExhaustedNoTiling,
    Found,
    Patch,
    TilingAssignment,
    assignment_from_orbit,
    build_ball_patch,
    build_patch,
    constraints_for,
    export_dot,
    export_tiling_text,
    search_patch,
    simulate_row,
)

__version__ = "0.1.0"
