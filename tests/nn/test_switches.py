"""The scoped, exception-safe execution switch (:mod:`repro.nn.switches`)."""

from __future__ import annotations

import pytest

from repro import nn


class TestSwitches:
    def test_fused_kernels_exception_safe(self):
        assert nn.fused_enabled()
        with pytest.raises(RuntimeError):
            with nn.fused_kernels(False):
                assert not nn.fused_enabled()
                raise RuntimeError("boom")
        assert nn.fused_enabled()

    def test_nested_scopes(self):
        with nn.fused_kernels(False):
            with nn.fused_kernels(True):
                assert nn.fused_enabled()
            assert not nn.fused_enabled()
        assert nn.fused_enabled()

    def test_scope_close_is_idempotent(self):
        scope = nn.fused_kernels(False)
        assert not nn.fused_enabled()
        scope.close()
        scope.close()
        assert nn.fused_enabled()
