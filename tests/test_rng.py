"""The plain-Python SeedSequence hash and Philox draws against numpy's."""
import numpy as np
import pytest

from gradecast.models import ModelSpec, train
from gradecast.models.baselines import _PREDICT_STREAM
from gradecast.rng import mix_seed, substream, uniforms

from oracles import philox_uniforms, seed_sequence_word

# Word boundaries of the entropy (one word for 0 and for values below 2**32,
# two above) and the ends of the uint64 range, plus a seed taken mod 2**64.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -7]
PATH_VALUES = [0, 1, 2**32 - 1, 2**32, _PREDICT_STREAM, 2**40]


@pytest.mark.parametrize("seed", SEEDS)
def test_mix_seed_equals_seed_sequence(seed):
    for index in PATH_VALUES:
        assert mix_seed(seed, index) == seed_sequence_word(seed, index)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_philox(seed):
    """Counts 1 to 9 cross Philox's 4-word blocks; paths of 0 to 3 values
    give entropy shorter than, equal to and longer than the 4-word pool."""
    paths = [(), *((v,) for v in PATH_VALUES), (_PREDICT_STREAM, 0),
             (2**40, 2**32, 5)]
    for path in paths:
        for count in range(1, 10):
            got = uniforms(seed, *path, count=count)
            assert got == philox_uniforms(seed, *path, count=count), (path, count)
            assert got == substream(seed, *path).random(count).tolist()


def test_random_baseline_scores_are_its_substream():
    X, y = np.zeros((3, 2)), np.array([1, 2, 3])
    for seed in (0, mix_seed(42, 7), 2**64 - 1):
        outcome = train(ModelSpec(kind="random", seed=seed), X, y).predict(np.zeros(2))
        expected = substream(seed, _PREDICT_STREAM, 0).random(5)
        assert outcome.class_scores.tolist() == expected.tolist()
        assert outcome.grade == int(np.argmax(expected)) + 1
