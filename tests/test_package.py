"""Public surface: every exported name resolves."""

import kernel_budget


def test_every_exported_name_resolves():
    missing = [name for name in kernel_budget.__all__ if not hasattr(kernel_budget, name)]
    assert not missing
    assert len(set(kernel_budget.__all__)) == len(kernel_budget.__all__)
