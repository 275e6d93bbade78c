"""Deterministic RNG derivation and exact samplers.

Every stochastic operation takes a generator derived from the global seed
plus stable string parts (stage name, dialogue id, ordinal). Derivation goes
through a keyed hash, so per-item generators are independent of scheduling
and identical across platforms and runs. No wall-clock or OS entropy is used
anywhere in the package.

The samplers below draw through ``Random.getrandbits`` alone. Each returns,
draw for draw and with the same generator state afterwards, what the named
``random.Random`` method gives on CPython 3.10 to 3.13, without its per-call
layers of Python. So every output of the package rests only on ``seed()``,
``getrandbits()`` and ``random()``, whose results Python keeps from version
to version; the docs make no such promise for the other methods.
"""

from __future__ import annotations

import hashlib
import math
import random


def derive_seed(*parts: int | str) -> int:
    data = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def derive_rng(*parts: int | str) -> random.Random:
    return random.Random(derive_seed(*parts))


def below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: a uniform int in [0, n), by rejection of
    ``n.bit_length()``-bit draws."""
    if n <= 0:
        raise ValueError("empty range for below()")
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def sample_range(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)``: ``k`` distinct ints of [0, n) in draw order.

    Like ``sample``, it keeps a pool of the undrawn ints when that list is
    smaller than a set of ``k`` drawn ones, and otherwise redraws an int
    already drawn.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21  # sample's size of a small set minus that of an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):  # the undrawn ints are pool[:m]
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        selected = set()
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(j)
    return result


def shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)``: Fisher-Yates from the last item down, in place."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]
