import pathlib

import pytest
from hypothesis import settings

from latbounds.transform import build_transform_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# property tests replay the same examples on every run and stay cheap
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def table15():
    # the table the CLI builds for a p=1.5 hypotheses entry
    return build_transform_table(1.5, r_max=96.0, tol=1e-8)


@pytest.fixture(scope="session")
def table05():
    # r_max 44: the least of 4, 6, 8, ... where fhat_0.5 is within 5% of
    # its power-law tail at tol 1e-8
    return build_transform_table(0.5, r_max=44.0, tol=1e-8)


@pytest.fixture(scope="session")
def acceptance_manifest():
    path = REPO_ROOT / "manifests" / "acceptance.json"
    assert path.exists(), "shipped manifest missing"
    return path
