"""Renders, counters and one step's gradients against the pinned outputs of
``tests/reference_outputs.npz``, written by ``tests/reference_outputs.py``.

Images agree to 1e-12 absolute, counters exactly, and each map's gradient to
1e-10 of its largest entry; Adam steps are left out, since Adam's m / sqrt(v)
can flip near-zero entries between machines."""

import numpy as np
import pytest

from reference_outputs import PATH, build


@pytest.fixture(scope="module")
def outputs():
    with np.load(PATH) as pinned:
        return {key: pinned[key] for key in pinned.files}, build()


def test_the_same_outputs_are_made(outputs):
    pinned, fresh = outputs
    assert sorted(fresh) == sorted(pinned)


def test_renders_and_counters(outputs):
    pinned, fresh = outputs
    for key in pinned:
        if key.endswith("_counters"):
            assert fresh[key].tolist() == pinned[key].tolist(), key
        elif not key.startswith("grad_"):
            assert fresh[key].shape == pinned[key].shape, key
            assert np.max(np.abs(fresh[key] - pinned[key])) <= 1e-12, key


def test_step_gradients(outputs):
    pinned, fresh = outputs
    grads = [key for key in pinned if key.startswith("grad_")]
    assert grads
    for key in grads:
        assert fresh[key].shape == pinned[key].shape, key
        scale = np.max(np.abs(pinned[key]))
        assert scale > 0, key
        assert np.max(np.abs(fresh[key] - pinned[key])) <= 1e-10 * scale, key
