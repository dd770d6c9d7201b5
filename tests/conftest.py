import numpy as np
import pytest

from quantmimo import core


@pytest.fixture
def demo_channel():
    """The worked example's real 2x2 toy channel [[0.5, 1], [1, 0]] as one
    complex receive antenna: its [Re, Im] outputs are the toy's two rows."""
    return np.array([[0.5 + 1j, 1.0]])


@pytest.fixture
def demo_cfg():
    """One-bit quantizer with step 2."""
    return core.QuantizerConfig(bits=1, step=2.0)


@pytest.fixture
def demo_book():
    return core.enumerate_symbols(core.bpsk(), 2)
