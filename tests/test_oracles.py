"""The test oracles' own helpers."""

import numpy as np
import pytest

from oracles import conj_transpose


def test_conj_transpose_involution_and_norm():
    rng = np.random.default_rng(2)
    A = (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))).astype(np.complex128)
    Ah = conj_transpose(A)
    assert Ah.shape == (4, 6)
    assert np.array_equal(conj_transpose(Ah), A)
    assert np.linalg.norm(Ah) == pytest.approx(np.linalg.norm(A), rel=0, abs=0)
