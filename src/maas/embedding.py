"""Text embedding and layer-feature construction.

The embedder is a signed feature hasher: tokens are hashed into a fixed
number of buckets with a +/-1 sign drawn from a second hash, then the
bucket counts are L2-normalized. It is deterministic across processes and
needs no model weights.

Each text is lowercased, encoded to ASCII (other characters become `?`) and
split after one `bytes.translate` that keeps `[0-9a-z]` and blanks every
other byte: the tokens `findall` of `[0-9a-z]+` gives, as bytes. Each token
adds its +/-1.0 to a dict keyed by bucket, and each bucket reached is stored
into `np.zeros(dim)` as `count / norm`, the norm from the squares summed in
Python. Under about 9e7 tokens (n**2 < 2**53) every count and partial sum of
squares is an exact integer in float64, so no summation order changes them,
and `count / norm` is numpy's `/=` division: the bytes of a numpy `+=` loop
over a `split` on `[^0-9a-z]+` divided by `np.linalg.norm` (the tests
compare against it). No count rounds to -0.0, so no entry is -0.0.

Token hashes are memoized in one bounded, process-wide LRU cache keyed on
(token, dim), `TOKEN_CACHE_SIZE` entries. Template words and operator profile
words recur on every query, so after the first query almost only the fresh
number tokens are hashed. A cached (bucket, sign) pair is exactly what the
hash gives, so embeddings are unchanged bit for bit.

Each embedder keeps a memo, text -> read-only vector, for `embed_memo`. Only
texts of bounded sets go through it, operator profiles and training queries;
eval queries, each new, would only grow it.
"""

from __future__ import annotations

import functools
import math

# the blake2b that `hashlib` re-exports, without the OpenSSL bindings
# `import hashlib` loads
from _blake2 import blake2b

import numpy as np

from .errors import MaasError

# `bytes.translate` table: [0-9a-z] kept, every other byte a space
_KEEP = bytes(b if chr(b) in "0123456789abcdefghijklmnopqrstuvwxyz" else 32
              for b in range(256))
# Entries of the token memo. The shipped mix and catalog recur in 189 tokens;
# on fresh eval queries the hit rate is 28% at 64 entries, 82% at 128 and 95%
# from 192 up, the misses left being new number tokens, which no size catches
# (unbounded, the memo held 72k of them, +12 MB, after 8 s). 1024 leaves the
# recurring words five times their room, at about 230 KB when full.
TOKEN_CACHE_SIZE = 1024


# Keyed once here; each token hashes into a copy, never into these states.
# A copy skips the keyword and salt parsing a new blake2b object pays.
_BUCKET_HASH = blake2b(digest_size=8)
_SIGN_HASH = blake2b(digest_size=1, salt=b"sign")


@functools.lru_cache(maxsize=TOKEN_CACHE_SIZE)
def _token_bucket_sign(token: bytes, dim: int):
    h = _BUCKET_HASH.copy()
    h.update(token)
    bucket = int.from_bytes(h.digest(), "big") % dim
    h = _SIGN_HASH.copy()
    h.update(token)
    sign = 1.0 if h.digest()[0] & 1 else -1.0
    return bucket, sign


class HashingEmbedder:
    """Deterministic signed-feature-hashing embedder."""

    def __init__(self, dim: int):
        if dim < 1:
            raise MaasError("dim must be positive")
        self.dim = dim
        self.memo = {}

    def embed_memo(self, text: str) -> np.ndarray:
        """`embed(text)`, read-only, from `memo`; embedded there on a miss."""
        vec = self.memo.get(text)
        if vec is None:
            vec = self.embed(text)
            vec.setflags(write=False)
            self.memo[text] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        dim = self.dim
        counts = {}
        for token in text.lower().encode("ascii", "replace").translate(_KEEP).split():
            bucket, sign = _token_bucket_sign(token, dim)
            counts[bucket] = counts.get(bucket, 0.0) + sign
        vec = np.zeros(dim)
        norm = math.sqrt(sum(c * c for c in counts.values()))
        if norm > 0.0:
            for bucket, c in counts.items():
                vec[bucket] = c / norm
        return vec


def layer_feature(query_vec: np.ndarray, layer_sums) -> np.ndarray:
    """Concatenate the query embedding with the raw per-layer sums of the
    selected operators' profile embeddings (query first, layers in order)."""
    d = query_vec.shape[0]
    for s in layer_sums:
        if s.shape != (d,):
            raise MaasError(
                f"layer sum has shape {s.shape}, expected ({d},)"
            )
    return np.concatenate([query_vec, *layer_sums])
