import os

# one BLAS thread, as bench/run.py pins it: threads on the small element
# products and banded solves cost CPU without saving wall time.  Set before
# anything imports numpy; the CLI and demo subprocesses inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from hardydirac import PotentialPair, parse_pair
from hardydirac.verify import standard_pair_gallery


@pytest.fixture(scope="session")
def coulomb_pair() -> PotentialPair:
    return parse_pair("coulomb:1", "coulomb:1")


@pytest.fixture(scope="session")
def shell_coulomb_pair() -> PotentialPair:
    return parse_pair("shell:1@1", "coulomb:1")


@pytest.fixture(scope="session")
def pair_gallery():
    return standard_pair_gallery()
