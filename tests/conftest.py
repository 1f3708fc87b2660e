import pathlib

import pytest
from hypothesis import settings

from latbounds.transform import cached_transform_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# property tests replay the same examples on every run and stay cheap
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def table_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tables"))


@pytest.fixture(scope="session")
def table15(table_dir):
    # long table: lattice summation needs the asymptote pushed far out
    return cached_transform_table(1.5, tol=1e-8, directory=table_dir, r_max=96.0)


@pytest.fixture(scope="session")
def table05(table_dir):
    return cached_transform_table(0.5, tol=1e-8, directory=table_dir)


@pytest.fixture(scope="session")
def acceptance_manifest():
    path = REPO_ROOT / "manifests" / "acceptance.json"
    assert path.exists(), "shipped manifest missing"
    return path
