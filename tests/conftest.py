import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by the name of every numpy.fft.fftn, ifftn, rfftn
    or irfftn call, in call order, so a budget cannot be met by switching
    transforms and a test can check which transforms ran."""
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
