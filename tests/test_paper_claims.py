"""The paper's video claims: compression at orders 3 and 4, and completion.

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

Completion uses both videos.  The masks keep the entries whose draw from
``default_rng(1)`` falls below the observed share, so the 30% mask lies
inside the 50% one.  Matrix completion is ``complete`` on the frames-as-columns
unfolding, the F-order reshape of video and mask to ``1200 x 40 x 1`` (grey)
or ``1200 x 120 x 1`` (colour): with a single trailing extent the t-SVD is
the matrix SVD, so the same solver is singular value thresholding of the
unfolding.  That matrix has full rank, since its columns are all 40 shifts
of each image, so a low-rank matrix model cannot fill it in, while the
tensor has tubal rank 1.  Both solves use ``rho=0.01``, the fastest to
converge on the grey video; there the gap is above 120 dB at ``rho`` 0.003,
0.1 and 1 as well.
"""

import math

import numpy as np
import pytest

from tsvdkit import compression, decomposition
from tsvdkit.completion import AdmmConfig, complete, rse_db

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


@pytest.mark.parametrize("video", [grey_video, colour_video], ids=["order3", "order4"])
@pytest.mark.parametrize("observed", [0.3, 0.5])
def test_tensor_completion_beats_matrix_completion_by_100_db(video, observed):
    m = video()
    mask = np.random.default_rng(1).random(m.shape) < observed
    config = AdmmConfig(rho=0.01)
    tensor, _ = complete(np.where(mask, m, 0.0), mask, config)
    flat = (m.shape[0] * m.shape[1], math.prod(m.shape[2:]), 1)
    matrix, _ = complete(
        np.where(mask, m, 0.0).reshape(flat, order="F"), mask.reshape(flat, order="F"), config
    )
    assert rse_db(tensor, m) < rse_db(matrix.reshape(m.shape, order="F"), m) - 100.0
