"""The paper's video-compression claim, at orders 3 and 4.

The video: a random rank-3 40x30 image, and 40 frames, each the previous one
circularly shifted down by one row, so frame t is the image rolled by t rows.
With S the 40x40 cyclic shift, frame t is ``S^t A``; as S^40 = I, the DFT
over frames gives slice k = 40 * P_k A, with P_k the rank-1 projector onto
the eigenvector of S for the k-th root of unity.  Every spectral slice thus
has rank 1 and the tensor has tubal rank 1, while the frames span all 40
shifts, so the ``(40*30) x 40`` unfolding that ``svd`` truncates has full
rank.  The colour video stacks three such videos, one per channel, each from
its own random rank-3 image, as a fourth mode; a DFT over channels mixes the
channel images but keeps every slice of rank 1, and its ``(40*30) x 120``
unfolding again has full rank.

The images are the first draws of ``default_rng(0)``; nothing is tuned.
"""

import numpy as np
import pytest

from tsvdkit import compression, decomposition

TARGET_RATIO = 4.0


def shifted_video(image: np.ndarray, frames: int) -> np.ndarray:
    return np.stack([np.roll(image, t, axis=0) for t in range(frames)], axis=2)


def rank3_image(rng) -> np.ndarray:
    return rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))


def grey_video() -> np.ndarray:
    return shifted_video(rank3_image(np.random.default_rng(0)), 40)


def colour_video() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.stack([shifted_video(rank3_image(rng), 40) for _ in range(3)], axis=3)


@pytest.mark.parametrize("video", [grey_video, colour_video], ids=["order3", "order4"])
def test_tubal_rank_is_one(video):
    assert decomposition.rank_measures(video())["tubal_rank"] == 1


@pytest.mark.parametrize("video", [grey_video, colour_video], ids=["order3", "order4"])
def test_tubal_compression_beats_svd_by_100_db(video):
    m = video()
    errors = {}
    for method in ("svd", "tsvd_tubal"):
        k = compression.k_for_ratio(method, m.shape, TARGET_RATIO)
        result = compression.compress(m, method, k)
        assert result.ratio >= TARGET_RATIO
        errors[method] = result.rse_db
    assert errors["tsvd_tubal"] < errors["svd"] - 100.0
