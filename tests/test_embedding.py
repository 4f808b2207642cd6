"""Embedding: hashing oracle and layer features."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maas import embedding
from maas.embedding import HashingEmbedder, layer_feature
from maas.errors import MaasError
from maas.registry import builtin_catalog


def oracle_embed(text, dim):
    """Independent straight-line reimplementation of the hashing scheme."""
    import re

    vec = np.zeros(dim)
    for token in re.split(r"[^0-9a-z]+", text.lower()):
        if not token:
            continue
        raw = token.encode("utf-8")
        bucket = int.from_bytes(
            hashlib.blake2b(raw, digest_size=8).digest(), "big"
        ) % dim
        sign_byte = hashlib.blake2b(raw, digest_size=1, salt=b"sign").digest()[0]
        vec[bucket] += 1.0 if sign_byte & 1 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


class TestHashingEmbedder:
    def test_empty_text_is_zero_vector(self):
        vec = HashingEmbedder(64).embed("")
        assert vec.shape == (64,)
        assert not vec.any()

    def test_punctuation_only_is_zero_vector(self):
        assert not HashingEmbedder(64).embed("... !!! ---").any()

    def test_deterministic(self):
        e = HashingEmbedder(64)
        np.testing.assert_array_equal(
            e.embed("add two numbers"), e.embed("add two numbers")
        )

    def test_unit_norm(self):
        vec = HashingEmbedder(64).embed("add two numbers")
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    @given(st.text(max_size=80), st.sampled_from([8, 64, 128]))
    def test_matches_independent_oracle(self, text, dim):
        assert (HashingEmbedder(dim).embed(text).tobytes()
                == oracle_embed(text, dim).tobytes())

    def test_keyed_states_stay_empty(self):
        for text in ("add two numbers", "café 中文 x1", "a b c " * 50):
            for dim in (1, 8, 64, 97):
                HashingEmbedder(dim).embed(text)
        assert (embedding._BUCKET_HASH.copy().digest()
                == hashlib.blake2b(digest_size=8).digest())
        assert (embedding._SIGN_HASH.copy().digest()
                == hashlib.blake2b(digest_size=1, salt=b"sign").digest())

    def test_case_insensitive(self):
        e = HashingEmbedder(64)
        np.testing.assert_array_equal(e.embed("Add Two"), e.embed("add two"))

    def test_catalog_profiles_pairwise_distinct(self):
        e = HashingEmbedder(64)
        vecs = [
            e.embed(s.profile_text)
            for s in builtin_catalog()
            if s.profile_text
        ]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert not np.array_equal(vecs[i], vecs[j])

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            HashingEmbedder(0)


class TestLayerFeature:
    def test_empty_sums_returns_query_copy(self):
        q = HashingEmbedder(16).embed("hello world")
        out = layer_feature(q, [])
        np.testing.assert_array_equal(out, q)
        out[0] += 1.0
        assert out[0] != q[0]  # a copy, not a view

    def test_concatenation_order_and_length(self):
        d = 16
        q = np.arange(d, dtype=np.float64)
        s1 = np.ones(d)
        s2 = 2.0 * np.ones(d)
        out = layer_feature(q, [s1, s2])
        assert out.shape == (3 * d,)
        np.testing.assert_array_equal(out[:d], q)
        np.testing.assert_array_equal(out[d : 2 * d], s1)
        np.testing.assert_array_equal(out[2 * d :], s2)

    def test_dimension_mismatch(self):
        with pytest.raises(MaasError, match=r"layer sum has shape \(8,\), expected \(16,\)"):
            layer_feature(np.zeros(16), [np.zeros(8)])

    def test_layer_sum_is_plain_vector_addition(self):
        e = HashingEmbedder(64)
        cot, react = (
            s for s in builtin_catalog() if s.id in ("cot", "react")
        )
        expected = e.embed(cot.profile_text) + e.embed(react.profile_text)
        # raw sums are not renormalized
        assert abs(np.linalg.norm(expected) - 1.0) > 1e-6
        out = layer_feature(np.zeros(64), [expected])
        np.testing.assert_array_equal(out[64:], expected)

    @given(st.integers(0, 4))
    def test_length_formula(self, n_sums):
        d = 8
        out = layer_feature(np.zeros(d), [np.zeros(d)] * n_sums)
        assert out.shape == (d * (1 + n_sums),)

