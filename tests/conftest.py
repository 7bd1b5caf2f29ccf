import itertools
import os

import numpy as np
import pytest
from hypothesis import settings

from threshold_lab import QaryFunction

from oracles import random_binary_function, random_positive_measure, random_real_function

# property tests run without a per-example deadline, whose timings a shared host
# makes flaky; on CI every property test also draws the same examples on every
# run, and a failure prints the blob that replays it locally (@reproduce_failure)
settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True, print_blob=True)
settings.load_profile("ci" if os.environ.get("CI") else "dev")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def majority3():
    pts = itertools.product((0, 1), repeat=3)
    return QaryFunction.from_table(2, 3, [0 if x.count(0) >= 2 else 1 for x in pts])


@pytest.fixture(scope="session")
def xor_indicator():
    # 1[x0 != x1] over {0,1}^2
    return QaryFunction.from_table(2, 2, [0.0, 1.0, 1.0, 0.0], codomain="real")


@pytest.fixture(scope="session")
def small_corpus():
    """Shared random corpus: (real f, binary f, measure) triples, q in {2,3}, n <= 4."""
    rng = np.random.default_rng(7151)
    corpus = []
    for _ in range(100):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        measure = random_positive_measure(q, rng)
        corpus.append(
            (random_real_function(q, n, rng), random_binary_function(q, n, rng), measure)
        )
    return corpus
