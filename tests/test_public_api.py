"""The package's public names are each module's ``__all__`` and the
exception classes of ``errors``, re-exported as the very same objects."""

import subprocess
import sys
from inspect import ismodule

import tamebc
from tamebc import dvr, errors, jumps, lattice, motivic, pushout

MODULES = (jumps, dvr, motivic, lattice, pushout)

PUBLIC = {
    # errors
    "BadDivisor", "ConfigMismatch", "CongruenceViolation", "DegreeBound", "DomainError",
    "NoPole", "NonIntegralExponent", "NonUnitDivisor", "NotEquivariant", "NotPurelyWild",
    "PrecisionExhausted", "SpecFileError", "SpecInvariantViolation", "UniquenessViolated",
    # jumps
    "CharacterDecomp", "DJumps", "Gm", "JumpMultiset", "NormOneQuadratic", "Product",
    "Res", "ResQuot", "Torus", "character_decomposition", "d_jumps_closed_form",
    "edixhoven_graded", "jumps_of_extension", "order_function", "order_recursion_check",
    "parse_torus", "render_torus", "tame_conductor", "torus_jumps",
    # dvr
    "DEFAULT_PRECISION", "DVRConfig", "EisensteinPoly", "ElemDivisors", "TameContext",
    "TruncSeries", "cokernel_d_jumps_oracle", "oracle_precision", "smith_normal_form",
    # motivic
    "CycloRational", "JacobianSpec", "MotivicPoly", "PoleReport", "ToricDivisorData",
    "component_count", "jacobian_order", "pole_report", "reduce", "render_cyclo",
    "zeta_induced_torus", "zeta_jacobian",
    # lattice
    "FiniteAbelianGroup", "GLattice", "LatticeMap", "is_isogeny",
    "jumps_non_invariance_demo", "klein_four_example_map", "validate",
    # pushout
    "DEFAULT_DEGREE_BOUND", "GluingSpec", "PolyAlgebra", "TwoPointsGluing",
    "WildPointGluing", "WitnessReport", "base_change_commutes", "fiber_membership",
    "generator_check", "nilpotent_witness", "tor_defect",
}

SUBMODULES = {"errors", "jumps", "dvr", "motivic", "lattice", "pushout"}


def test_a_fresh_import_exposes_exactly_the_pinned_names():
    # in a fresh interpreter: other tests import more submodules
    names = subprocess.run(
        [sys.executable, "-c",
         "import tamebc; print(' '.join(n for n in dir(tamebc) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert len(names) == len(PUBLIC) + len(SUBMODULES) == 78
    assert set(names) == PUBLIC | SUBMODULES


def test_every_all_entry_is_the_exported_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tamebc, name) is getattr(module, name), (module.__name__, name)


def test_every_exported_name_comes_from_one_list():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.DomainError)}
    for name in error_classes:
        assert getattr(tamebc, name) is getattr(errors, name)
    exported = {name for name, obj in vars(tamebc).items()
                if not name.startswith("_") and not ismodule(obj)}
    assert exported == set(declared) | error_classes == PUBLIC
