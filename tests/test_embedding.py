"""Embedding: hashing oracle, the token memo and layer features."""

import hashlib
import itertools
import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maas import embedding
from maas.embedding import HashingEmbedder, layer_feature
from maas.errors import MaasError
from maas.registry import builtin_catalog


# separators a wrong tokenizer would read apart: at either end, the
# information separators, NEL and LINE SEPARATOR; and letters that lowercase
# to ASCII ("\u212a", KELVIN SIGN, to "k") or to more than one code point
SEPARATORS = "-\x1c\x1d\x1e\x1f\x85\u2028\u212a\u0130"
# texts of ASCII letters and digits, each character as likely a separator as
# not, so a separator often sits next to a letter or at either end
ORACLE_TEXTS = st.text(alphabet=st.one_of(
    st.sampled_from(string.ascii_letters + string.digits),
    st.sampled_from(" .!" + SEPARATORS)), max_size=80)


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


def cancelling_pair(dim):
    """Two tokens that hash to one bucket at `dim` with opposite signs."""
    seen = {}
    for i in itertools.count():
        token = f"w{i}"
        bucket, sign = embedding._token_bucket_sign.__wrapped__(token.encode(), dim)
        if (bucket, -sign) in seen:
            other = seen[(bucket, -sign)]
            return (token, other) if sign > 0 else (other, token)
        seen[(bucket, sign)] = token


def split_tokens(text):
    """The tokens `embed` hashes, from one `translate` of the lowered text's
    ASCII bytes and one `split`."""
    return text.lower().encode("ascii", "replace").translate(embedding._KEEP).split()


# any code point, lone surrogates included, mixed with ASCII letters and
# digits (so digits sit next to letters), the separators above and letters
# that lowercase to ASCII; and texts of separators alone
UNICODE_TEXTS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=80),
    st.text(st.one_of(st.characters(exclude_categories=()),
                      st.sampled_from(string.ascii_letters + string.digits),
                      st.sampled_from(SEPARATORS + "\ud800\udc00\udfff\u017f")),
            max_size=80),
    st.text(st.sampled_from(" .!-_\t\n\x00\x7f\x1c\x1f\x85\xa0\u2028\u3000"),
            max_size=40),
)


class TestTokenizer:
    @settings(max_examples=150)
    @given(UNICODE_TEXTS)
    @example("\u212a\u0130 K\u212aX")
    @example("a1b2 12abc\ud800x\udfff9")
    @example(" -\x1c\x85\u2028. ")
    def test_tokens_are_the_findall_tokens(self, text):
        assert split_tokens(text) == [t.encode()
                                      for t in re.findall(r"[0-9a-z]+", text.lower())]

    def test_letters_lowercasing_to_ascii_are_read(self):
        # KELVIN SIGN lowercases to "k"; U+0130 to "i" and a combining dot
        assert split_tokens("\u212aa \u0130x") == [b"ka", b"i", b"x"]


class TestHashingEmbedder:
    def test_blake2b_is_hashlibs(self):
        """The embedder's blake2b, from `_blake2`, is the one `hashlib`
        exports, so every hash is the one the oracle computes."""
        assert embedding.blake2b is hashlib.blake2b

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

    @given(ORACLE_TEXTS, st.sampled_from([1, 8, 64, 128]))
    def test_matches_independent_oracle(self, text, dim):
        assert (HashingEmbedder(dim).embed(text).tobytes()
                == oracle_embed(text, dim).tobytes())

    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_cancelled_counts_match_the_oracle_bitwise(self, dim):
        """Two tokens of one bucket and opposite signs cancel: alone they give
        the zero vector, and beside another token their bucket is +0.0."""
        plus, minus = cancelling_pair(dim)
        for text in (f"{plus} {minus}", f"{minus}-{plus}.{plus} {minus}!",
                     f"{plus} {minus} {plus}{minus} 7"):
            vec = HashingEmbedder(dim).embed(text)
            assert vec.tobytes() == oracle_embed(text, dim).tobytes()
        for text in (f"{plus} {minus}", f"{minus}-{plus}.{plus} {minus}!"):
            assert HashingEmbedder(dim).embed(text).tobytes() == bytes(8 * dim)

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
        with pytest.raises(MaasError):
            HashingEmbedder(0)


def unmemoized_embed(text, dim):
    """The embedding written out as a numpy loop over `split` pieces, with
    every token hashed afresh through the function the memo wraps."""
    vec = np.zeros(dim)
    for token in re.split(r"[^0-9a-z]+", text.lower()):
        if token:
            bucket, sign = embedding._token_bucket_sign.__wrapped__(token.encode(), dim)
            vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


_fresh = itertools.count()


def fresh_tokens(n):
    """`n` tokens that no earlier call in this process has hashed."""
    return [f"memotest{next(_fresh)}x" for _ in range(n)]


# words that recur, so the memo hits, beside text with digits and non-ASCII
WORDS = st.sampled_from(["add", "two", "numbers", "café", "中文", "x1", "42",
                         "ünïcode", "reason", "step"])
TEXTS = st.one_of(
    st.text(max_size=400),
    st.text(alphabet=st.sampled_from("ab09 -é中\n"), max_size=2000),
    st.text(alphabet=st.sampled_from("ak0 " + SEPARATORS), max_size=200),
    st.tuples(st.sampled_from(SEPARATORS), st.lists(WORDS, max_size=20),
              st.sampled_from(SEPARATORS)).map(
        lambda t: t[0] + t[0].join(t[1]) + t[2]),
    st.lists(WORDS, max_size=300).map(" ".join),
)


class TestTokenMemo:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TEXTS, min_size=1, max_size=4), st.sampled_from([1, 8, 64, 128]))
    def test_equals_unmemoized_reference_bitwise(self, texts, dim):
        embedder = HashingEmbedder(dim)
        # each text twice: first the memo may miss, then it hits
        for text in texts + texts:
            assert (embedder.embed(text).tobytes()
                    == unmemoized_embed(text, dim).tobytes())

    def test_repeated_token_is_hashed_once(self):
        token, = fresh_tokens(1)
        text = f"{token} {token} {token}"
        embedder = HashingEmbedder(64)
        before = embedding._token_bucket_sign.cache_info()
        embedder.embed(text)
        first = embedding._token_bucket_sign.cache_info()
        assert (first.misses - before.misses, first.hits - before.hits) == (1, 2)
        embedder.embed(text)
        second = embedding._token_bucket_sign.cache_info()
        assert (second.misses - first.misses, second.hits - first.hits) == (0, 3)

    def test_keyed_on_dim(self):
        token, = fresh_tokens(1)
        before = embedding._token_bucket_sign.cache_info()
        HashingEmbedder(8).embed(token)
        HashingEmbedder(64).embed(token)
        after = embedding._token_bucket_sign.cache_info()
        assert after.misses - before.misses == 2

    def test_stays_within_its_size(self):
        maxsize = embedding._token_bucket_sign.cache_info().maxsize
        assert maxsize == embedding.TOKEN_CACHE_SIZE
        HashingEmbedder(64).embed(" ".join(fresh_tokens(maxsize + 100)))
        assert embedding._token_bucket_sign.cache_info().currsize <= maxsize

    def test_embed_returns_a_fresh_writable_array(self):
        embedder = HashingEmbedder(16)
        first = embedder.embed("add two numbers")
        expected = first.copy()
        assert first.flags.writeable
        first[:] = 7.0
        second = embedder.embed("add two numbers")
        assert second is not first
        np.testing.assert_array_equal(second, expected)


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

