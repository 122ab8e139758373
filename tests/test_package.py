"""The public surface: every exported name exists, and none is listed twice."""

import importlib
import types

import pytest

import slve

SUBMODULES = ["cli", "constitutive", "core", "dispersion", "pde", "twave"]


def test_package_exports_resolve():
    missing = [name for name in slve.__all__ if not hasattr(slve, name)]
    assert missing == []


def test_package_exports_unique():
    assert len(slve.__all__) == len(set(slve.__all__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"slve.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_one_error_class_per_outcome():
    exported = {name for name in slve.__all__
                if isinstance(getattr(slve, name), type)
                and issubclass(getattr(slve, name), BaseException)}
    assert exported == {"SlveError", "InvalidParameterError", "ConfigError", "BlowUpError",
                        "StrainLimitExceededError", "NoKinkError", "SpanTooShortError"}
    defined = {name for name, obj in vars(slve.errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert defined == exported
    assert len(slve.__all__) == 53
    # make_problem holds the kappa formula; no separate kappa function is left
    assert not hasattr(slve.twave, "reduction_kappa")


def test_dispersion_is_the_submodule():
    # the model-switching solver is exported as solve_dispersion, so no
    # function shadows the submodule of the same name
    assert isinstance(slve.dispersion, types.ModuleType)
    assert slve.solve_dispersion is slve.dispersion.solve_dispersion
