import importlib
import inspect

import pytest

import spineq

# the names `spineq/__init__.py` imported eagerly before the namespace
# became lazy; each must stay reachable as spineq.<name>
PUBLIC_NAMES = sorted("""
    AccuracyError DomainError FieldParseError IntegrationError SingularityError SpinEqError
    SeriesResult USING_COMPILED complex_gamma gauss_2f1 kummer_phi parabolic_d
    AngleRep CVec3 EigenPair Spinor anticonjugate decompose eigenpairs frame
    from_angles inner l_vector sigma_apply to_angles vector_from_eigenvectors
    CatalogField ConstField ExprField eval_field load_field_json parse_field_spec split_kg
    BlochState Trajectory bloch_propagate evolution_constant_direction evolution_from_q
    field_from_q hamiltonian_check propagate stationary_solutions
    ReductionPlan SigmaMap reduce_field reparametrize_time sigma_map
    to_schrodinger_potentials transform_solution
    general_solution invert_field invert_field_selfadjoint
    entry entry_solution scale_family verify_entry
    DarbouxParams darboux_apply darboux_field darboux_from_seed darboux_params_constant_f
""".split())


def test_all_is_the_public_names():
    assert sorted(spineq.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_its_module_attribute(name):
    module = importlib.import_module(f"spineq.{spineq._MODULE_OF[name]}")
    assert getattr(spineq, name) is getattr(module, name)
    namespace = {}
    exec(f"from spineq import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_dir_lists_the_lazy_names_and_submodules():
    listed = set(dir(spineq))
    assert set(PUBLIC_NAMES) <= listed
    assert {"catalog", "dynamics", "expr", "__version__"} <= listed


def test_submodule_is_an_attribute():
    assert spineq.dynamics is importlib.import_module("spineq.dynamics")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        spineq.nope
    assert not hasattr(spineq, "nope")


def test_no_field_function_takes_params():
    # a field's parameters are its spec's: `params` is an entry's parameter
    # set in the catalog, and the pair (alpha, beta), a DarbouxParams, in darboux
    takes = sorted(name for name in PUBLIC_NAMES
                   if inspect.isfunction(f := getattr(spineq, name))
                   and "params" in inspect.signature(f).parameters)
    assert takes == ["darboux_apply", "darboux_field", "entry_solution", "verify_entry"]
