"""tamebc: exact tame base-change invariants.

Jump multisets, order functions and tame conductors of induced tori,
brute-force cokernel oracles over truncated valuation rings, motivic
zeta functions with pole reports for purely wild induced tori and
semiabelian Jacobians, Galois-lattice isogeny checks, and fiber-product
ring diagnostics.  Everything is exact: prime-field coefficients,
arbitrary-precision integers and rationals, no floating point.
"""

from .errors import (
    BadDivisor,
    ConfigMismatch,
    CongruenceViolation,
    DegreeBound,
    DomainError,
    NoPole,
    NonIntegralExponent,
    NonUnitDivisor,
    NotEquivariant,
    NotPurelyWild,
    PrecisionExhausted,
    SpecFileError,
    SpecInvariantViolation,
    UniquenessViolated,
)
from .jumps import (
    CharacterDecomp,
    DJumps,
    Gm,
    JumpMultiset,
    NormOneQuadratic,
    Product,
    Res,
    ResQuot,
    Torus,
    character_decomposition,
    d_jumps_closed_form,
    edixhoven_graded,
    jumps_of_extension,
    order_function,
    order_recursion_check,
    parse_torus,
    render_torus,
    tame_conductor,
    torus_jumps,
)
from .dvr import (
    DEFAULT_PRECISION,
    DVRConfig,
    EisensteinPoly,
    ElemDivisors,
    TameContext,
    TruncSeries,
    cokernel_d_jumps_oracle,
    smith_normal_form,
)
from .motivic import (
    CycloRational,
    JacobianSpec,
    MotivicPoly,
    PoleReport,
    ToricDivisorData,
    component_count,
    jacobian_order,
    pole_report,
    reduce,
    render_cyclo,
    zeta_induced_torus,
    zeta_jacobian,
)
from .lattice import (
    FiniteAbelianGroup,
    GLattice,
    LatticeMap,
    is_isogeny,
    jumps_non_invariance_demo,
    klein_four_example_map,
    validate,
)
from .pushout import (
    DEFAULT_DEGREE_BOUND,
    GluingSpec,
    PolyAlgebra,
    TwoPointsGluing,
    WildPointGluing,
    WitnessReport,
    base_change_commutes,
    fiber_membership,
    generator_check,
    nilpotent_witness,
    tor_defect,
)

__version__ = "0.1.0"
