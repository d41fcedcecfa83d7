import pytest

import adsheat
from adsheat import kernels, quadrature, verify


@pytest.mark.parametrize("module", [adsheat, kernels, quadrature, verify], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
