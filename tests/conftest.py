import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one on every numpy.fft.fftn, ifftn, rfftn or
    irfftn call, so a budget cannot be met by switching transforms."""
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _original=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
