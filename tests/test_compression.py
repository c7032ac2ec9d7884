import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvdkit import algebra, compression, decomposition, synthesis, transforms
from tsvdkit.compression import HALF, PAIR_IM, PAIR_RE, SELF
from tsvdkit.errors import DataError, FormatError, InfeasibleError, NumericalError

from tsvd_decode_reference import decode_tsvd_reference


def rel(got, want):
    denom = np.linalg.norm(np.asarray(want).ravel())
    return np.linalg.norm((np.asarray(got) - np.asarray(want)).ravel()) / max(denom, 1e-300)


class TestRatioFormulas:
    def test_svd_ratio_at_video_dims(self):
        # 130*160*50 entries over 10*(130*160 + 50 + 1) retained scalars
        assert compression.ratio_for("svd", (130, 160, 50), 10) == pytest.approx(
            1040000 / 208510, rel=1e-12
        )

    def test_tsvd_ratio(self):
        assert compression.ratio_for("tsvd", (10, 10, 10), 5) == pytest.approx(
            1000 / 105, rel=1e-12
        )

    def test_tubal_ratio(self):
        assert compression.ratio_for("tsvd_tubal", (10, 10, 10), 2) == pytest.approx(
            100 / 42, rel=1e-12
        )

    def test_k_bounds(self):
        with pytest.raises(InfeasibleError):
            compression.ratio_for("svd", (4, 4, 3), 0)
        with pytest.raises(InfeasibleError):
            compression.ratio_for("tsvd", (4, 4, 3), 13)
        with pytest.raises(InfeasibleError):
            compression.ratio_for("tsvd_tubal", (4, 4, 3), 5)
        for method in compression.METHODS:
            for k in (1.5, 2.0, "2"):
                with pytest.raises(InfeasibleError, match="not an integer"):
                    compression.ratio_for(method, (4, 4, 3), k)
            one = compression.stored_count_for(method, (4, 4, 3), 1)
            assert compression.stored_count_for(method, (4, 4, 3), np.int64(2)) == 2 * one

    def test_unknown_method(self):
        with pytest.raises(InfeasibleError):
            compression.ratio_for("hosvd", (4, 4, 3), 1)


class TestKForRatio:
    def test_tubal_target_two(self):
        # ratio(k3=2) = 100/42 ~ 2.38 >= 2; ratio(k3=3) = 100/63 ~ 1.59 < 2
        assert compression.k_for_ratio("tsvd_tubal", (10, 10, 10), 2.0) == 2

    def test_largest_k_meeting_target_one(self):
        dims = (10, 10, 10)
        for method in compression.METHODS:
            k = compression.k_for_ratio(method, dims, 1.0)
            assert compression.ratio_for(method, dims, k) >= 1.0
            if k < compression.k_max(method, dims):
                assert compression.ratio_for(method, dims, k + 1) < 1.0

    def test_unreachable_target(self):
        # max svd ratio on 10x10x10 is 1000/111 ~ 9.01 at k1=1
        with pytest.raises(InfeasibleError):
            compression.k_for_ratio("svd", (10, 10, 10), 1000.0)

    def test_target_below_one_rejected(self):
        with pytest.raises(InfeasibleError):
            compression.k_for_ratio("svd", (10, 10, 10), 0.5)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 1 - 1e-16])
    def test_nonfinite_or_low_target_rejected(self, target):
        for method in compression.METHODS:
            with pytest.raises(InfeasibleError):
                compression.k_for_ratio(method, (6, 5, 4, 3), target)

    @staticmethod
    def walk(method, dims, target):
        """Reference: the largest k whose ratio meets the target, found by
        walking down from k_max; None when no k does."""
        for k in range(compression.k_max(method, dims), 0, -1):
            if compression.ratio_for(method, dims, k) >= target:
                return k
        return None

    @pytest.mark.parametrize("dims", [(10, 10, 10), (7, 5, 6), (30, 20, 8), (6, 5, 4, 3), (5, 4, 3, 2, 2)],
                             ids=lambda d: "x".join(map(str, d)))
    def test_matches_walk(self, dims):
        for method in compression.METHODS:
            ratios = [compression.ratio_for(method, dims, k)
                      for k in range(1, compression.k_max(method, dims) + 1)]
            # Every exact ratio, its float neighbours, and values in between.
            targets = [1.0, 1.5, 2.0, 3.7, 10.0, 1e6]
            for r in ratios:
                targets += [r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)]
            for target in targets:
                want = self.walk(method, dims, target)
                if target < 1.0 or want is None:
                    with pytest.raises(InfeasibleError):
                        compression.k_for_ratio(method, dims, target)
                else:
                    assert compression.k_for_ratio(method, dims, target) == want, (method, target)


class TestCompressSvd:
    def test_full_rank_is_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 4, 6))
        result = compression.compress(m, "svd", min(5 * 4, 6))
        assert np.array_equal(result.reconstruction, m)
        assert result.rse_db == float("-inf")

    def test_rank_one_unfolding(self):
        rng = np.random.default_rng(1)
        column = rng.standard_normal(5 * 4)
        weights = rng.standard_normal(6)
        m = np.outer(column, weights).reshape(5, 4, 6, order="F")
        result = compression.compress(m, "svd", 1)
        assert rel(result.reconstruction, m) <= 1e-12

    def test_stored_scalars_match_denominator(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 4, 6))
        for k in range(1, 7):
            result = compression.compress(m, "svd", k)
            assert result.stored_scalars == k * (5 * 4 + 6 + 1)
            assert result.achieved_ratio == pytest.approx(result.ratio, rel=1e-12)


class TestCompressTsvd:
    def test_full_budget_is_exact(self):
        rng = np.random.default_rng(3)
        for dims in ((5, 4, 6), (6, 5, 4, 3)):
            m = rng.standard_normal(dims)
            result = compression.compress(m, "tsvd", min(dims[:2]) * math.prod(dims[2:]))
            assert np.array_equal(result.reconstruction, m)
            assert result.rse_db == float("-inf")

    def test_stored_scalars_for_every_budget(self):
        rng = np.random.default_rng(4)
        for dims in ((5, 4, 6), (6, 5, 4, 3)):
            m = rng.standard_normal(dims)
            n1, n2 = dims[:2]
            mirrored = transforms.mirrored_slices(dims[2:])
            for k2 in range(1, min(n1, n2) * math.prod(dims[2:]) + 1):
                result = compression.compress(m, "tsvd", k2)
                assert result.stored_scalars == k2 * (n1 + n2 + 1)
                assert len(result.meta) == k2
                assert not any(mirrored[j] for _, j, _ in result.meta)

    def test_rse_nonincreasing_in_budget(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 5, 4))
        errors = [compression.compress(m, "tsvd", k2).rse_db for k2 in range(1, 5 * 4 + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_reconstruction_is_real_and_symmetric_selection(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4, 5))
        for k2 in (1, 3, 7, 12):
            result = compression.compress(m, "tsvd", k2)
            assert result.reconstruction.dtype == np.float64
            assert np.isfinite(result.reconstruction).all()

    def test_beats_tubal_at_matched_budget(self):
        # tsvd at budget P*k3 can store what tubal truncation at k3 keeps.
        # At order 4 this fails if a mirrored slice takes part of the budget.
        for dims, seed in itertools.product(((8, 7, 5), (8, 7, 4, 3)), range(5)):
            m = synthesis.random_low_tubal_rank(dims, 4, seed=seed)
            m += 0.05 * np.random.default_rng(100 + seed).standard_normal(dims)
            for k3 in (1, 2, 3):
                spectral = compression.compress(m, "tsvd", math.prod(dims[2:]) * k3).rse_db
                tubal = compression.compress(m, "tsvd_tubal", k3).rse_db
                assert spectral <= tubal + 1e-9


class TestCompressTubal:
    def test_equals_truncation(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 5, 4))
        factors = decomposition.t_svd(m)
        for k3 in range(1, 5):
            result = compression.compress(m, "tsvd_tubal", k3)
            expected = m if k3 == 5 else decomposition.truncate(factors, k3)
            assert rel(result.reconstruction, expected) <= 1e-12

    def test_synthetic_rank_is_exact(self):
        m = synthesis.random_low_tubal_rank((10, 9, 6), 3, seed=8)
        result = compression.compress(m, "tsvd_tubal", 3)
        assert rel(result.reconstruction, m) <= 1e-9

    def test_stored_scalars(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 5, 4))
        for k3 in range(1, 6):
            result = compression.compress(m, "tsvd_tubal", k3)
            assert result.stored_scalars == k3 * (6 + 5 + 1) * 4


class TestCompressSweep:
    @pytest.mark.parametrize("method,ks", [("svd", [1, 3, 6]), ("tsvd", [1, 3, 22, 24]),
                                           ("tsvd_tubal", [1, 2, 4])])
    def test_matches_separate_runs(self, method, ks):
        # The last k of each list is k_max; tsvd k=22 ends on a HALF record.
        m = np.random.default_rng(14).standard_normal((5, 4, 6))
        swept = list(compression.compress_sweep(m, method, ks))
        assert [result.k for result in swept] == ks
        assert ks[-1] == compression.k_max(method, m.shape)
        if method == "tsvd":
            assert swept[2].meta[-1][0] == compression.HALF
        for got in swept:
            want = compression.compress(m, method, got.k)
            assert got.meta == want.meta
            assert len(got.payload) == len(want.payload)
            assert all(np.array_equal(a, b) for a, b in zip(got.payload, want.payload))
            assert np.array_equal(got.reconstruction, want.reconstruction)
            assert got.rse_db == want.rse_db

    @pytest.fixture
    def factorizations(self, monkeypatch):
        counts = {"t_svd": 0, "svd": 0}
        t_svd, svd = compression.t_svd, np.linalg.svd

        def counting_t_svd(m):
            counts["t_svd"] += 1
            return t_svd(m)

        def counting_svd(*args, **kwargs):
            counts["svd"] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(compression, "t_svd", counting_t_svd)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return counts

    @pytest.mark.parametrize("method", compression.METHODS)
    def test_one_factorization_per_sweep(self, method, factorizations):
        m = np.random.default_rng(15).standard_normal((5, 4, 6))
        ks = range(1, compression.k_max(method, m.shape) + 1)
        assert len(list(compression.compress_sweep(m, method, ks))) == len(ks)
        if method == "svd":
            assert factorizations == {"t_svd": 0, "svd": 1}
        else:
            assert factorizations["t_svd"] == 1

    @pytest.mark.parametrize("method", compression.METHODS)
    def test_bad_k_fails_before_factoring(self, method, factorizations):
        m = np.random.default_rng(16).standard_normal((5, 4, 6))
        top = compression.k_max(method, m.shape)
        for ks in ([top + 1, 1], [1, 2, 0], [1, top + 1, 2]):
            with pytest.raises(InfeasibleError):
                next(compression.compress_sweep(m, method, ks))
        assert factorizations == {"t_svd": 0, "svd": 0}


@pytest.mark.parametrize("method,k", [("svd", 1.5), ("tsvd", 2.5), ("tsvd_tubal", 1.0)])
def test_compress_rejects_a_non_integer_k(method, k):
    m = np.random.default_rng(17).standard_normal((4, 4, 3))
    with pytest.raises(InfeasibleError, match="not an integer"):
        compression.compress(m, method, k)
    with pytest.raises(InfeasibleError, match="not an integer"):
        compression.decode_payload(method, m.shape, k, np.zeros(10), [])


class TestDecodePayload:
    @pytest.mark.parametrize(
        "method,k",
        [("svd", 1), ("svd", 2), ("svd", 3), ("tsvd", 1), ("tsvd", 2), ("tsvd", 7), ("tsvd", 19),
         ("tsvd_tubal", 1), ("tsvd_tubal", 2), ("tsvd_tubal", 3), ("tsvd_tubal", 4)],
    )
    def test_payload_rebuilds_reconstruction(self, method, k):
        """Below k_max the reconstruction is the decode of its own payload,
        to the last bit, at orders 3 and 4."""
        rng = np.random.default_rng(10)
        for dims in ((6, 5, 4), (6, 5, 4, 3)):
            m = rng.standard_normal(dims)
            result = compression.compress(m, method, k)
            scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
            rebuilt = compression.decode_payload(method, m.shape, k, scalars, result.meta)
            assert rebuilt.tobytes() == result.reconstruction.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method,k", [("svd", 3), ("tsvd", 7), ("tsvd_tubal", 2)])
    def test_overflow_raises_numerical_error(self, method, k):
        m = np.random.default_rng(10).standard_normal((6, 5, 4))
        result = compression.compress(m, method, k)
        scalars = 1e300 * np.concatenate([b.ravel(order="F") for b in result.payload])
        with pytest.raises(NumericalError, match="not finite"):
            compression.decode_payload(method, m.shape, k, scalars, result.meta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method,k", [("svd", 3), ("tsvd", 7), ("tsvd_tubal", 2)])
    def test_nonfinite_scalar_is_a_data_error(self, method, k, bad):
        """A scalar that is not finite is bad input, not an overflow."""
        m = np.random.default_rng(10).standard_normal((6, 5, 4))
        result = compression.compress(m, method, k)
        scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
        scalars[-1] = bad
        with pytest.raises(DataError, match="non-finite scalars"):
            compression.decode_payload(method, m.shape, k, scalars, result.meta)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", compression.METHODS)
    def test_overflowing_input_raises_numerical_error(self, method):
        m = np.full((2, 2, 2), 1e308)
        for k in (1, compression.k_max(method, m.shape)):
            with pytest.raises(NumericalError, match="not finite"):
                compression.compress(m, method, k)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", compression.METHODS)
    @pytest.mark.parametrize("scale", [1e-170, 1e200, 1e300, 5e307])
    def test_extreme_scale_is_scaled_or_numerical_error(self, method, scale):
        """A representable result is the scaled result of the unscaled
        input, with finite factors; any other ends in NumericalError."""
        unit = np.random.default_rng(12).choice([-1.0, 1.0], (4, 3, 5))
        for k in (1, 2, compression.k_max(method, unit.shape)):
            try:
                result = compression.compress(scale * unit, method, k)
            except NumericalError:
                continue
            assert all(np.isfinite(b).all() for b in result.payload)
            assert result.rse_db == pytest.approx(compression.compress(unit, method, k).rse_db, abs=1e-9)

    def test_scalars_may_be_a_list(self):
        m = np.random.default_rng(10).standard_normal((6, 5, 4))
        for method, k in (("svd", 3), ("tsvd", 7), ("tsvd_tubal", 2)):
            result = compression.compress(m, method, k)
            scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
            rebuilt = compression.decode_payload(method, m.shape, k, scalars.tolist(), result.meta)
            assert rebuilt.tobytes() == result.reconstruction.tobytes()

    # Past the first two: rows of a float, a string, a bare int, None, and an
    # integer past int64, which the int64 cast would truncate or fail on.
    @pytest.mark.parametrize("meta", [[(0, 0)], [(0, 0, 0, 0)], [(0.5, 0, 0)], [(0, 0.9, 0)], [("a", 0, 0)],
                                      [0], [None], [(0, 2**70, 0)]])
    def test_meta_rows_are_triples(self, meta):
        with pytest.raises(FormatError, match=r"\(kind, slice, diag\) triple"):
            compression.decode_payload("tsvd", (2, 2, 3), 1, np.ones(5), meta)

    def test_meta_may_hold_numpy_integers(self):
        m = np.random.default_rng(11).standard_normal((6, 5, 4))
        result = compression.compress(m, "tsvd", 7)
        scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
        for meta in ([np.array(row, dtype=np.uint32) for row in result.meta],
                     [tuple(np.int64(x) for x in row) for row in result.meta]):
            rebuilt = compression.decode_payload("tsvd", m.shape, 7, scalars, meta)
            assert rebuilt.tobytes() == result.reconstruction.tobytes()

    def test_thin_tsvd_decode_peaks_below_three_outputs(self):
        """A 1x1x10^6 decode holds its output, the half-spectrum stack and
        the inverse transform's work, and no table over the spectrum."""
        scalars = np.ones(3)
        tracemalloc.start()
        try:
            out = compression.decode_payload("tsvd", (1, 1, 10**6), 1, scalars, [(0, 0, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 1, 10**6)
        assert peak <= 3 * out.nbytes

    def test_full_budget_payload_rebuilds_input(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 4, 3))
        for method in compression.METHODS:
            k = compression.k_max(method, m.shape)
            result = compression.compress(m, method, k)
            scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
            rebuilt = compression.decode_payload(method, m.shape, k, scalars, result.meta)
            assert rel(rebuilt, m) <= 1e-12


class TestTsvdRecordValidation:
    """Records of a 4x3x6 tensor: slices 0 and 3 are real, 1 and 2 complex."""

    def setup_method(self):
        rng = np.random.default_rng(13)
        self.m = rng.standard_normal((4, 3, 6))
        self.result = compression.compress(self.m, "tsvd", 6)
        self.scalars = np.concatenate([b.ravel(order="F") for b in self.result.payload])

    def decode(self, meta):
        return compression.decode_payload("tsvd", self.m.shape, 6, self.scalars, meta)

    def test_valid_records_decode(self):
        assert rel(self.decode(self.result.meta), self.result.reconstruction) <= 1e-12

    @pytest.mark.parametrize(
        "record",
        [(7, 0, 0), (compression.SELF, 4, 0), (compression.SELF, 0, 3),
         (compression.SELF, 1, 0), (compression.PAIR_RE, 0, 0), (compression.HALF, 3, 0)],
        ids=["unknown-kind", "slice-out-of-range", "diag-out-of-range",
             "self-on-complex-slice", "pair-on-real-slice", "half-on-real-slice"],
    )
    def test_bad_record_rejected(self, record):
        meta = [record] + list(self.result.meta[1:])
        with pytest.raises(FormatError):
            self.decode(meta)

    def test_record_on_mirrored_slice_rejected(self):
        """In a 4x3x4x3 tensor, stored slice 3 (trailing index (3, 0)) is the
        conjugate of slice 1 (trailing index (1, 0)), so no record names it."""
        m = np.random.default_rng(13).standard_normal((4, 3, 4, 3))
        assert np.flatnonzero(transforms.mirrored_slices(m.shape[2:])).tolist() == [3]
        result = compression.compress(m, "tsvd", 6)
        scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
        meta = [(compression.PAIR_RE, 3, 0), (compression.PAIR_IM, 3, 0)] + list(result.meta[2:])
        with pytest.raises(FormatError, match="conjugate of another stored slice"):
            compression.decode_payload("tsvd", m.shape, 6, scalars, meta)


class TestWhatIsStored:
    """Every stored scalar and record, pinned against references the test
    computes from ``t_svd(m)``, at orders 3 and 4.  No golden hashes: LAPACK
    output differs across numpy builds."""

    DIMS = [(6, 5, 4), (6, 5, 4, 3)]

    @staticmethod
    def reference_tsvd(m, factors, k):
        """The ``(kind, slice, diag)`` records and payload rows of the ``k``
        largest entries, ranked by ``sorted`` and walked one budget unit at a
        time."""
        sig, u_hat, v_hat = factors.sig_hat, factors.u_hat, factors.v_hat
        real = transforms.real_slices(m.shape[2:])
        mirrored = transforms.mirrored_slices(m.shape[2:])
        entries = sorted(((j, i) for j in range(sig.shape[0]) for i in range(sig.shape[1]) if not mirrored[j]),
                         key=lambda e: (-sig[e], e[0], e[1]))
        meta, rows = [], []
        for pos, (j, i) in enumerate(entries):
            if len(meta) == k:
                break
            u, v = u_hat[j, :, i], v_hat[j, :, i]
            if real[j]:
                meta.append((SELF, j, i))
                rows.append(np.concatenate(([sig[j, i]], u.real, v.real)))
            elif len(meta) + 2 <= k:
                meta += [(PAIR_RE, j, i), (PAIR_IM, j, i)]
                rows += [np.concatenate(([sig[j, i]], u.real, v.real)),
                         np.concatenate(([sig[j, i]], u.imag, v.imag))]
            else:
                uu, ss, vvh = np.linalg.svd((sig[j, i] * np.outer(u, v.conj())).real)
                later = [e for e in entries[pos + 1:] if real[e[0]]]
                if later and sig[later[0]] >= ss[0]:
                    j, i = later[0]
                    meta.append((SELF, j, i))
                    rows.append(np.concatenate(([sig[j, i]], u_hat[j, :, i].real, v_hat[j, :, i].real)))
                else:
                    meta.append((HALF, j, i))
                    rows.append(np.concatenate(([ss[0]], uu[:, 0], vvh[0, :])))
        return meta, rows

    @staticmethod
    def assert_same(got, want):
        assert got.meta == want.meta
        assert [b.tobytes() for b in got.payload] == [b.tobytes() for b in want.payload]
        assert got.reconstruction.tobytes() == want.reconstruction.tobytes()

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"order{len(d)}")
    def test_tsvd_records(self, dims):
        m = np.random.default_rng(20).standard_normal(dims)
        factors = decomposition.t_svd(m)
        ks = range(1, compression.k_max("tsvd", dims) + 1)
        halves = 0
        for got in compression.compress_sweep(m, "tsvd", ks):
            meta, rows = self.reference_tsvd(m, factors, got.k)
            assert got.meta == meta
            assert [b.tobytes() for b in got.payload] == [row.tobytes() for row in rows]
            self.assert_same(got, compression.compress(m, "tsvd", got.k))
            halves += meta[-1][0] == HALF
        assert halves

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"order{len(d)}")
    @pytest.mark.parametrize("ks", [[1, 2, 4], [5]])
    def test_tsvd_tubal_blocks(self, dims, ks):
        m = np.random.default_rng(21).standard_normal(dims)
        factors = decomposition.t_svd(m)
        u, s, v = factors.u, factors.s, factors.v
        for got in compression.compress_sweep(m, "tsvd_tubal", ks):
            k = got.k
            want = [u[:, :k], s[np.arange(k), np.arange(k)], v[:, :k]]
            assert [b.tobytes() for b in got.payload] == [np.ascontiguousarray(w).tobytes() for w in want]
            self.assert_same(got, compression.compress(m, "tsvd_tubal", k))

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"order{len(d)}")
    def test_svd_sweep_matches_single_runs(self, dims):
        m = np.random.default_rng(22).standard_normal(dims)
        for got in compression.compress_sweep(m, "svd", [1, 2, 4]):
            self.assert_same(got, compression.compress(m, "svd", got.k))


class TestTsvdDecodeReference:
    """The batched ``tsvd`` decoder against the record-by-record one in
    ``tsvd_decode_reference.py``: equal reconstructions on valid payloads,
    equal ``FormatError`` text on malformed ones."""

    # Order 4 with mirrored slices ((4, 3, 4, 3): slice 3) and without.
    DIMS = [(4, 3, 6), (5, 4, 5), (4, 3, 4, 3), (3, 4, 2, 4)]

    @staticmethod
    def payload(dims, k, seed):
        """Random scalars under the records of a real ``tsvd`` result, its
        terms (a single record, or a ``PAIR_RE`` record and the ``PAIR_IM``
        after it) in random order."""
        rng = np.random.default_rng(seed)
        terms = []
        for record in compression.compress(rng.standard_normal(dims), "tsvd", k).meta:
            if record[0] == PAIR_IM:
                terms[-1].append(record)
            else:
                terms.append([record])
        rows = rng.standard_normal((k, 1 + dims[0] + dims[1]))
        return rows, [record for t in rng.permutation(len(terms)) for record in terms[t]]

    @staticmethod
    def outcomes(dims, rows, meta):
        """What each decoder makes of the payload: an array or an error text."""
        out = []
        for decode in (lambda *a: compression.decode_payload("tsvd", *a), decode_tsvd_reference):
            try:
                out.append(decode(dims, len(meta), rows.ravel(), meta))
            except FormatError as exc:
                out.append(str(exc))
        return out

    @settings(max_examples=60, deadline=None)
    @given(dims=st.sampled_from(DIMS), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_valid_payloads(self, dims, data, seed):
        k = data.draw(st.integers(1, compression.k_max("tsvd", dims)))
        got, want = self.outcomes(dims, *self.payload(dims, k, seed))
        assert rel(got, want) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(dims=st.sampled_from(DIMS), data=st.data(), seed=st.integers(0, 2**32 - 1),
           mutation=st.sampled_from(["kind", "slice", "diag", "mirrored", "duplicate", "drop",
                                     "swap", "split"]))
    def test_mutated_meta(self, dims, data, seed, mutation):
        k = data.draw(st.integers(1, compression.k_max("tsvd", dims)))
        rows, meta = self.payload(dims, k, seed)
        r = data.draw(st.integers(0, k - 1))
        kind, j, i = meta[r]
        halves = [t for t, rec in enumerate(meta) if rec[0] in (PAIR_RE, PAIR_IM)]
        opens = [t for t in halves if meta[t][0] == PAIR_RE]
        if mutation == "kind":
            meta[r] = (data.draw(st.sampled_from([SELF, PAIR_RE, PAIR_IM, HALF, 4, 255])), j, i)
        elif mutation == "slice":
            meta[r] = (kind, data.draw(st.integers(0, transforms.real_slices(dims[2:]).size + 1)), i)
        elif mutation == "diag":
            meta[r] = (kind, j, data.draw(st.integers(0, min(dims[:2]) + 1)))
        elif mutation == "mirrored":
            mirrored = np.flatnonzero(transforms.mirrored_slices(dims[2:])).tolist()
            if mirrored:
                meta[r] = (kind, data.draw(st.sampled_from(mirrored)), i)
        elif halves and mutation == "duplicate":
            meta[r] = meta[data.draw(st.sampled_from(halves))]
        elif halves and k > 1 and mutation == "drop":
            drop = data.draw(st.sampled_from(halves))
            rows, meta = np.delete(rows, drop, axis=0), meta[:drop] + meta[drop + 1:]
        elif opens and mutation == "swap":
            t = data.draw(st.sampled_from(opens))
            meta[t], meta[t + 1] = meta[t + 1], meta[t]
        elif opens and mutation == "split":
            t = data.draw(st.sampled_from(opens))
            im = meta.pop(t + 1)
            meta.insert(data.draw(st.sampled_from([p for p in range(k) if p != t + 1])), im)
        got, want = self.outcomes(dims, rows, meta)
        if opens and mutation in ("swap", "split"):
            assert isinstance(want, str) and want.startswith("broken tsvd pair")
        if isinstance(want, str):
            assert got == want
        else:
            assert rel(got, want) <= 1e-12

    @pytest.mark.parametrize("meta,at", [
        ([(PAIR_IM, 1, 0), (PAIR_RE, 1, 0), (SELF, 0, 0), (SELF, 0, 1)], 0),
        ([(PAIR_RE, 1, 0), (SELF, 0, 0), (PAIR_IM, 1, 0), (SELF, 0, 1)], 0),
        ([(SELF, 0, 0), (PAIR_RE, 2, 0), (PAIR_IM, 2, 0), (PAIR_RE, 1, 0)], 3),
        ([(PAIR_RE, 1, 0), (PAIR_RE, 2, 0), (PAIR_IM, 2, 0), (PAIR_IM, 1, 0)], 0),
    ], ids=["pair-im-first", "split-halves", "trailing-pair-re", "two-pair-re-in-a-row"])
    def test_broken_pairs(self, meta, at):
        """Slices 0 and 3 of a 4x3x6 tensor are real, 1 and 2 complex."""
        rows = np.random.default_rng(14).standard_normal((4, 8))
        got, want = self.outcomes((4, 3, 6), rows, meta)
        assert got == want
        assert want.startswith(f"broken tsvd pair at record {at} ")


def test_monotone_rse_in_retained_parameters():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((7, 6, 5))
    for method in compression.METHODS:
        ks = range(1, compression.k_max(method, m.shape) + 1)
        errors = [compression.compress(m, method, k).rse_db for k in ks]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))
