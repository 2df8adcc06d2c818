"""Fig. 7's OPS sweep: input validation and its two engines.

``run_fig07`` issues every pass as one fast-engine batch over a
per-size address table; ``engine="reference"`` drives the same table
access by access and is the oracle.
"""

import pytest

from repro.experiments.fig07_ops_sweep import run_fig07


def test_rejects_zero_ops():
    with pytest.raises(ValueError, match="n_ops"):
        run_fig07(sizes=[4096], n_ops=0)


def test_rejects_size_under_one_line():
    with pytest.raises(ValueError, match="sizes"):
        run_fig07(sizes=[4096, 32], n_ops=10)


def test_rejects_more_cores_than_the_machine():
    with pytest.raises(ValueError, match="n_cores"):
        run_fig07(sizes=[4096], n_ops=10, n_cores=9)
    with pytest.raises(ValueError, match="n_cores"):
        run_fig07(sizes=[4096], n_ops=10, n_cores=0)


@pytest.mark.differential
@pytest.mark.parametrize("seed", [0, 3])
def test_fast_matches_reference(seed):
    """Reads and writes, one size inside L2 and one past it."""
    params = dict(sizes=[64 * 1024, 384 * 1024], n_ops=300, n_cores=4, seed=seed)
    assert run_fig07(engine="reference", **params) == run_fig07(engine="fast", **params)
