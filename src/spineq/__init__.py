"""spineq: the two-level spin equation i dV/dt = (sigma . F(t)) V.

Library layout:

* spinors     — two-component spinor algebra, L-vectors, eigenvalue problem
* specfun     — Gauss 2F1, Kummer Phi, parabolic cylinder D_p, complex gamma
* expr/fields — field DSL, field specs and their JSON envelope
* reductions  — field-equivalence transforms and the Schrodinger reduction
* dynamics    — numerical oracle, evolution operators, Bloch and canonical forms
* solutions   — general solution by quadrature, inverse problem
* catalog     — the 26 exact (field, solution) families: the table, no numpy
* closed_forms — their closed-form solutions and residual verification
* darboux     — structure-preserving Darboux transformation
* cli         — the ``spineq`` command

The namespace is lazy (PEP 562): ``import spineq`` loads no submodule and
no numpy.  The first access to a name in ``__all__`` (``spineq.propagate``,
``from spineq import verify_entry``) or to a submodule imports the module
that defines it, so a process pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports here
_EXPORTS = {
    "errors": ("AccuracyError", "DomainError", "FieldParseError",
               "IntegrationError", "SingularityError", "SpinEqError"),
    "specfun": ("SeriesResult", "USING_COMPILED", "complex_gamma", "gauss_2f1",
                "kummer_phi", "parabolic_d"),
    "spinors": ("AngleRep", "CVec3", "EigenPair", "Spinor", "anticonjugate",
                "decompose", "eigenpairs", "frame", "from_angles", "inner",
                "l_vector", "sigma_apply", "to_angles", "vector_from_eigenvectors"),
    "fields": ("CatalogField", "ConstField", "ExprField", "eval_field",
               "load_field_json", "parse_field_spec", "split_kg"),
    "dynamics": ("BlochState", "Trajectory", "bloch_propagate",
                 "evolution_constant_direction", "evolution_from_q", "field_from_q",
                 "hamiltonian_check", "propagate", "stationary_solutions"),
    "reductions": ("ReductionPlan", "SigmaMap", "reduce_field", "reparametrize_time",
                   "sigma_map", "to_schrodinger_potentials", "transform_solution"),
    "solutions": ("general_solution", "invert_field", "invert_field_selfadjoint"),
    "catalog": ("entry", "entry_solution", "scale_family", "verify_entry"),
    "darboux": ("DarbouxParams", "darboux_apply", "darboux_field",
                "darboux_from_seed", "darboux_params_constant_f"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"closed_forms", "expr", "numutil"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
