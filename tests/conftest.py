import sys
from pathlib import Path

import numpy as np
import pytest

# Appended, not prepended: a `src` named on PYTHONPATH (another checkout's,
# say) is imported in preference to this checkout's.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from envasr.pipeline import generate_synthetic_corpus, write_corpus


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """A small written-out synthetic corpus shared across pipeline tests."""
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(generate_synthetic_corpus(8, seed=7), root)
    return root
