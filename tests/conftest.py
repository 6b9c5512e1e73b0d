import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by the name of every numpy.fft.fft, ifft, fftn,
    ifftn, rfftn or irfftn call, in call order, so a budget cannot be met by
    switching transforms and a test can check which transforms ran.  An n-D
    call counts once: numpy's own per-axis passes are not these names."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
