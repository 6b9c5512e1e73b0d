import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one on every numpy.fft.fftn or ifftn call."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _original=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
