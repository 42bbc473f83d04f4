"""Shared caches so expensive compilations happen once per session.

Property tests run under one hypothesis profile: no deadline, derandomised
and without an example database, so every run draws the same examples.
"""

import functools

import pytest
from hypothesis import settings

from formc import harness

settings.register_profile("formc", deadline=None, derandomize=True, database=None)
settings.load_profile("formc")


@functools.lru_cache(maxsize=None)
def compiled(source: str, name: str = "form") -> harness.CompiledForm:
    return harness.compile_source(source, name)


_KERNELS: dict = {}


def kernel_for(cf, representation: str, **kwargs):
    key = (cf.name, cf.source, representation, tuple(sorted(kwargs.items())))
    if key not in _KERNELS:
        if representation == "tensor":
            _KERNELS[key] = harness.tensor_kernel(cf, **kwargs)
        else:
            _KERNELS[key] = harness.quadrature_kernel(cf, **kwargs)
    return _KERNELS[key]


@pytest.fixture(scope="session")
def compile_cached():
    return compiled


@pytest.fixture(scope="session")
def kernel_cached():
    return kernel_for
