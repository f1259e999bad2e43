"""qrel: exact q-expansions of modular objects and exhaustive verification
of the class number relations, trace formulas, and combinatorial
identities they satisfy.

All arithmetic is exact: rationals via fractions.Fraction, real-quadratic
values via qrel.scalars.QuadExt, and pi-multiples via qrel.scalars.PiScalar.

The package namespace is lazy (PEP 562): ``qrel.<name>`` imports the
module that defines the name on first access, so a command pays only for
the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "arith": ("DirichletCharacter", "kronecker_character", "lambda_k", "sigma_k"),
    "brackets": ("BracketSpec", "correction_b", "kappa", "rankin_cohen"),
    "classnum": ("hurwitz", "hurwitz_cache"),
    "congruence": (),
    "forms": (),
    "holproj": ("delta_indef", "lambda_indef", "lambda_pa"),
    "identities": (),
    "pell": ("pell_orbit",),
    "qseries": ("QSeries",),
    "relations": ("RelationReport", "run_check", "verify_all"),
    "scalars": ("PiScalar", "QuadExt"),
    "slots": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
