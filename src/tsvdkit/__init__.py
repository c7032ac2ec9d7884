"""Tensor-SVD toolbox: t-product algebra, spectral tensor SVD, rank measures,
nuclear-norm tensor completion, and truncation-based compression."""

from .algebra import (
    frobenius,
    identity,
    is_orthogonal,
    t_product,
    t_product_reference,
    transpose,
    tube_mult,
)
from .completion import AdmmConfig, SolveReport, complete, rse_db, shrink_step, svt
from .compression import (
    CompressionResult,
    compress,
    compress_svd,
    compress_tsvd,
    compress_tsvd_tubal,
    decode_payload,
    k_for_ratio,
)
from .decomposition import TSvdFactors, multi_rank, t_svd, tnn, truncate, ttn, tubal_rank
from .errors import (
    DataError,
    DimensionError,
    DivergenceError,
    FormatError,
    InfeasibleError,
    NumericalError,
    TsvdkitError,
    UndefinedMetricError,
)
from .synthesis import random_low_tubal_rank
from .transforms import SamplingOperator, fft_mode3, ifft_mode3

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "CompressionResult",
    "DataError",
    "DimensionError",
    "DivergenceError",
    "FormatError",
    "InfeasibleError",
    "NumericalError",
    "SamplingOperator",
    "SolveReport",
    "TSvdFactors",
    "TsvdkitError",
    "UndefinedMetricError",
    "complete",
    "compress",
    "compress_svd",
    "compress_tsvd",
    "compress_tsvd_tubal",
    "decode_payload",
    "fft_mode3",
    "frobenius",
    "identity",
    "ifft_mode3",
    "is_orthogonal",
    "k_for_ratio",
    "multi_rank",
    "random_low_tubal_rank",
    "rse_db",
    "shrink_step",
    "svt",
    "t_product",
    "t_product_reference",
    "t_svd",
    "tnn",
    "transpose",
    "truncate",
    "ttn",
    "tubal_rank",
    "tube_mult",
]
