"""Exact intersection calculus for moduli of spin and Prym curves.

The package verifies, in exact rational arithmetic, the divisor-class
identities, test-curve pairings, lattice facts, Grassmannian degrees and
quadratic-line-complex linear algebra behind the birational geometry of
the even-spin and Prym moduli spaces, up to the genus-8 canonical-class
decomposition and its rigidity certificate.

Everything is pure-Python exact arithmetic, in ints and, where a value
has a denominator, ``fractions.Fraction``: a check either holds exactly
or fails; there are no tolerances.

``import spincalc`` loads no submodule.  Each public name is imported from
its module on first access (PEP 562) and is not cached here, so a rebinding
of the module attribute is seen through ``spincalc.<name>`` as well.
"""

from importlib import import_module

#: the public names, by the module that defines them
_EXPORTS = {
    "checks": ("DEFAULT_SEED", "CheckRecord", "Report", "verify_all"),
    "curves": ("CurveClass", "LiftedSpinCurve", "btilde_curve",
               "covering_degree", "curve_class", "gamma_curve",
               "noether_c2", "pair", "pencil_curve", "pushforward_to_mbar",
               "r_curve_g8", "septic_pencil_curve", "xi_curve"),
    "kodaira": ("canonical_decomposition_g8",),
    "lattices": ("IntegerLattice", "cs_obstruction",
                 "doubly_elliptic_identities", "e8", "hyperbolic_u",
                 "lambda_identities", "lambda_lattice", "nikulin_lattice"),
    "linecomplex": ("SymmetricForm", "discriminant_tangency",
                    "is_singular_point", "plucker_quadric_rank",
                    "second_compound", "solve_in_basis", "symmetric_form",
                    "tangency", "wedge_pairs"),
    "picard": ("DivisorClass", "ModuliSpace", "brill_noether_g8",
               "canonical_class", "divisor_class", "format_class", "mbar",
               "named_divisor", "non_very_ample_g5", "prym_green",
               "prym_nikulin_g6", "pullback_to_spin",
               "rbar", "slope", "spin_plus", "sym_power_c1", "theta_null",
               "twisted_hodge_c1"),
    "schubert": ("SchubertCycle", "catalan_degree", "degree",
                 "grassmannian_degree", "multiply", "pieri", "sigma",
                 "vq_dimension"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
