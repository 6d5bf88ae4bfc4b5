"""Equivalence of the per-symbol byte-table kernels with the other GF paths.

``ShamirScheme.split``/``reconstruct`` run on :mod:`repro.gf.bytetab`
(``bytes.translate`` multiply tables, cached Lagrange coefficients), while
``split_many``/``reconstruct_many`` keep the numpy grid kernels of
:mod:`repro.gf.batch` and :mod:`repro.sharing.reference` keeps the scalar
oracle.  This suite pins all three to the same bytes: the tables against
the bit-by-bit carry-less product, same-rng splits against the scalar
oracle and the batch path, every k-subset reconstruction in any share
order, and the cached coefficients against the batch kernel.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.batch import lagrange_coeffs_at
from repro.gf.bytetab import MUL, bytes_eval_at_points, bytes_interpolate, lagrange_coeffs
from repro.gf.gf256 import _carryless_mul
from repro.sharing.base import ReconstructionError, Share
from repro.sharing.reference import scalar_shamir_reconstruct, scalar_shamir_split
from repro.sharing.shamir import ShamirScheme

SCHEME = ShamirScheme()

#: Thresholds 1 <= k <= m <= 8, the protocol's range with room to spare.
small_geometry = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.tuples(st.integers(min_value=1, max_value=m), st.just(m))
)


def share_bytes(shares) -> list:
    return [share.data for share in shares]


class TestTables:
    def test_every_entry_is_the_carryless_product(self):
        assert len(MUL) == 256
        for c, table in enumerate(MUL):
            assert len(table) == 256
            assert list(table) == [_carryless_mul(c, b) for b in range(256)], c

    def test_translate_scales_every_byte(self):
        data = bytes(range(256))
        assert data.translate(MUL[0]) == bytes(256)
        assert data.translate(MUL[1]) == data
        assert data.translate(MUL[0x53]).translate(MUL[0xCA]) == data  # 0x53 * 0xca = 1

    def test_empty_rows_give_empty_shares(self):
        assert bytes_eval_at_points([b"", b"", b""], 4) == [b""] * 4
        assert bytes_interpolate((1, 2), [b"", b""]) == b""


class TestSplit:
    @given(
        secret=st.binary(min_size=0, max_size=1400),
        geometry=small_geometry,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_scalar_and_batch(self, secret, geometry, seed):
        k, m = geometry
        shares = SCHEME.split(secret, k, m, np.random.default_rng(seed))
        assert [share.index for share in shares] == list(range(1, m + 1))
        assert all(isinstance(share.data, bytes) for share in shares)
        expected = share_bytes(scalar_shamir_split(secret, k, m, np.random.default_rng(seed)))
        assert share_bytes(shares) == expected
        (batch,) = SCHEME.split_many([secret], k, m, np.random.default_rng(seed))
        assert share_bytes(batch) == expected

    @given(
        secret=st.binary(min_size=0, max_size=1400),
        k=st.integers(min_value=1, max_value=255),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_all_255_shares_match_batch(self, secret, k, seed):
        shares = SCHEME.split(secret, k, 255, np.random.default_rng(seed))
        (batch,) = SCHEME.split_many([secret], k, 255, np.random.default_rng(seed))
        assert share_bytes(shares) == share_bytes(batch)

    @given(
        secret=st.binary(min_size=0, max_size=24),
        k=st.sampled_from([1, 2, 7, 255]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=8, deadline=None)
    def test_all_255_shares_match_scalar(self, secret, k, seed):
        shares = SCHEME.split(secret, k, 255, np.random.default_rng(seed))
        scalar = scalar_shamir_split(secret, k, 255, np.random.default_rng(seed))
        assert share_bytes(shares) == share_bytes(scalar)

    def test_same_rng_sequence_as_split_many(self):
        secrets = [bytes([length % 251]) * length for length in (0, 1, 64, 1250)]
        rng = np.random.default_rng(3)
        sequential = [SCHEME.split(secret, 3, 5, rng) for secret in secrets]
        batched = SCHEME.split_many(secrets, 3, 5, np.random.default_rng(3))
        assert [share_bytes(g) for g in sequential] == [share_bytes(g) for g in batched]

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_buffer_inputs(self, wrap):
        secret = bytes(range(200))
        shares = SCHEME.split(wrap(secret), 3, 5, np.random.default_rng(1))
        assert share_bytes(shares) == share_bytes(
            SCHEME.split(secret, 3, 5, np.random.default_rng(1))
        )
        assert all(type(share.data) is bytes for share in shares)

    def test_non_buffer_secret_raises(self):
        with pytest.raises(TypeError):
            SCHEME.split(5, 2, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("k,m", [(0, 3), (4, 3), (2, 256)])
    def test_bad_parameters_raise(self, k, m):
        with pytest.raises(ValueError):
            SCHEME.split(b"abc", k, m, np.random.default_rng(0))


class TestReconstruct:
    @given(
        secret=st.binary(min_size=0, max_size=1400),
        geometry=small_geometry,
        seed=st.integers(min_value=0, max_value=2**31),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_k_subset_in_any_order(self, secret, geometry, seed, order):
        k, m = geometry
        shares = SCHEME.split(secret, k, m, np.random.default_rng(seed))
        groups = []
        for subset in combinations(shares, k):
            group = list(subset)
            order.shuffle(group)
            groups.append(group)
            assert SCHEME.reconstruct(group) == secret
        assert SCHEME.reconstruct_many(groups) == [secret] * len(groups)

    @given(
        secret=st.binary(min_size=1, max_size=64),
        seed=st.integers(min_value=0, max_value=2**31),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_scalar_oracle(self, secret, seed, order):
        shares = SCHEME.split(secret, 4, 7, np.random.default_rng(seed))
        group = order.sample(shares, 4)
        assert SCHEME.reconstruct(group) == scalar_shamir_reconstruct(group) == secret

    def test_reconstruct_from_255_shares(self):
        secret = bytes(range(256)) * 3
        shares = SCHEME.split(secret, 200, 255, np.random.default_rng(5))
        group = shares[55:][::-1]
        assert SCHEME.reconstruct(group) == SCHEME.reconstruct_many([group])[0] == secret

    def test_extra_shares_beyond_k_are_ignored(self):
        shares = SCHEME.split(b"threshold", 2, 5, np.random.default_rng(2))
        assert SCHEME.reconstruct(shares) == b"threshold"

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_buffer_share_payloads(self, wrap):
        shares = SCHEME.split(b"buffered secret", 3, 5, np.random.default_rng(4))
        wrapped = [Share(s.index, wrap(s.data), s.k, s.m) for s in shares[1:4]]
        result = SCHEME.reconstruct(wrapped)
        assert type(result) is bytes and result == b"buffered secret"

    def test_bad_groups_raise_the_batch_paths_errors(self):
        shares = SCHEME.split(b"x" * 16, 3, 5, np.random.default_rng(6))
        short = Share(shares[2].index, shares[2].data[:-1], 3, 5)
        other = Share(shares[2].index, shares[2].data, 2, 5)
        bad_groups = [
            [],
            shares[:2],
            [shares[0], shares[1], short],
            [shares[0], shares[0], shares[1]],
            [shares[0], shares[1], other],
        ]
        for group in bad_groups:
            with pytest.raises(ReconstructionError) as per_symbol:
                SCHEME.reconstruct(group)
            with pytest.raises(ReconstructionError) as batch:
                SCHEME.reconstruct_many([group])
            assert str(per_symbol.value) == str(batch.value)
        with pytest.raises(ReconstructionError, match="inconsistent lengths"):
            SCHEME.reconstruct([shares[0], shares[1], short])


class TestLagrangeCache:
    @given(
        xs=st.lists(
            st.integers(min_value=1, max_value=255), min_size=1, max_size=12, unique=True
        ),
        points=st.lists(
            st.integers(min_value=0, max_value=255), min_size=2, max_size=2, unique=True
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_batch_coefficients_for_every_order(self, xs, points, order):
        # Ask for two orders of the same nodes at two points, twice over: a
        # cache keyed on anything less than the ordered tuple and the point
        # hands back coefficients computed for another key.
        shuffled = list(xs)
        order.shuffle(shuffled)
        for _ in range(2):
            for x in points:
                for nodes in (xs, shuffled):
                    if x in nodes:
                        with pytest.raises(ValueError):
                            lagrange_coeffs(tuple(nodes), x)
                        continue
                    expected = lagrange_coeffs_at(np.array(nodes, dtype=np.uint8), x).tolist()
                    assert list(lagrange_coeffs(tuple(nodes), x)) == expected

    def test_duplicate_nodes_raise(self):
        with pytest.raises(ValueError):
            lagrange_coeffs((1, 2, 1), 0)

    def test_cache_is_bounded(self):
        assert lagrange_coeffs.cache_info().maxsize is not None
