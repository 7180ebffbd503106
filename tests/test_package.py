"""The package's public names are the submodules' own objects, loaded on
first access."""

import importlib

import pytest

import statecover

SUBMODULES = ("demo", "evaluator", "executor", "glacier", "lifecycle", "runtime",
              "seqgen", "speckit", "ssg", "transport")

# public function -> the submodule that defines it
FUNCTIONS = {
    "classify": "executor",
    "run_campaign": "executor",
    "parse": "glacier",
    "print_formula": "glacier",
    "explore": "lifecycle",
    "load_model": "lifecycle",
    "select_sequences": "seqgen",
    "to_call_sequences": "seqgen",
    "infer_contracts": "speckit",
    "load_oas": "speckit",
}


def test_all_lists_the_version_the_submodules_and_the_functions():
    assert sorted(statecover.__all__) == sorted(("__version__", *SUBMODULES, *FUNCTIONS))
    assert set(statecover.__all__) <= set(dir(statecover))


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_submodule_name_is_the_submodule(name):
    assert getattr(statecover, name) is importlib.import_module(f"statecover.{name}")


@pytest.mark.parametrize("name, owner", sorted(FUNCTIONS.items()))
def test_a_function_name_is_its_submodules_function(name, owner):
    module = importlib.import_module(f"statecover.{owner}")
    assert getattr(statecover, name) is getattr(module, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nothing_here'"):
        statecover.nothing_here  # noqa: B018
    assert not hasattr(statecover, "nothing_here")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from statecover import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(statecover.__all__)
