"""``seeding``'s samplers against the ``random.Random`` methods they stand for.

Each case compares a sampler's result and the generator's state afterwards
(``getstate()``) with the stdlib method's, from generators seeded alike. The
module imports neither pytest nor Hypothesis, so it runs as a plain script
under any interpreter as well:

    PYTHONPATH=src python tests/test_seeding.py
"""

from __future__ import annotations

import math
import random

from dialoprep import noising, roles
from dialoprep.records import Dialogue, ParallelExample, SummaryRecord, Turn
from dialoprep.seeding import below, sample_range, shuffle


def _pair(seed) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


def _set_branch(n: int, k: int) -> bool:
    """Whether ``sample(range(n), k)`` tracks drawn ints in a set rather than
    undrawn ones in a list: n > 21 + 4^ceil(log4(3k)) when k > 5, else n > 21."""
    return n > 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)


def _sample_cases() -> list[tuple[int, int]]:
    """(n, k) for n from 1 to 600: every k from 0 to n for n up to 120; above
    that, every k up to 90 for n up to 300 and every fifth beyond, then n // 2
    and n.

    For n up to 600 a k of 86 or more always takes the pool branch (its set
    would need n > 1045), so the k up to 90 hold every set-branch case and,
    with n past 277, every boundary between the branches."""
    cases = []
    for n in range(1, 601):
        ks = range(n + 1) if n <= 120 else [
            *range(0 if n <= 300 else n % 5, 91, 1 if n <= 300 else 5), n // 2, n]
        cases += [(n, k) for k in ks]
    return cases


def test_sample_range_is_sample_of_range():
    branches = set()  # (set branch?, the size past which k takes it)
    for n, k in _sample_cases():
        expected, rng = _pair(n << 10 | k)
        assert sample_range(rng, n, k) == expected.sample(range(n), k), (n, k)
        assert rng.getstate() == expected.getstate(), (n, k)
        branches.add((_set_branch(n, k), 21 if k <= 5 else 85 if k <= 21 else 277))
    assert branches >= {(taken, bound) for taken in (False, True) for bound in (21, 85, 277)}


def test_sample_range_set_branch_boundaries_over_seeds():
    # Around each size at which a k switches branch: k up to 5 at n = 21,
    # 6-21 at 85, 22-85 at 277.
    for k, bound in [(1, 21), (5, 21), (6, 85), (21, 85), (22, 277), (85, 277)]:
        for n in (bound, bound + 1):
            assert _set_branch(n, k) == (n > bound)
            for seed in range(40):
                expected, rng = _pair(seed)
                assert sample_range(rng, n, k) == expected.sample(range(n), k), (n, k, seed)
                assert rng.getstate() == expected.getstate(), (n, k, seed)


def test_sample_range_refuses_what_sample_refuses():
    for n, k in [(0, 1), (3, 4), (3, -1)]:
        for sampler in (lambda rng: rng.sample(range(n), k),
                        lambda rng: sample_range(rng, n, k)):
            try:
                sampler(random.Random(0))
            except ValueError:
                continue
            raise AssertionError(f"sample of {k} from range({n}) did not raise")


def test_shuffle_is_random_shuffle():
    for length in range(61):
        for seed in range(20):
            expected, rng = _pair(length << 10 | seed)
            items = [f"t{i}" for i in range(length)]
            want = items[:]
            expected.shuffle(want)
            shuffle(rng, items)
            assert items == want, (length, seed)
            assert rng.getstate() == expected.getstate(), (length, seed)


def test_below_is_randrange():
    sizes = [*range(1, 300), *(2 ** e + d for e in range(9, 41) for d in (-1, 0, 1))]
    picker = random.Random(8)
    sizes += [picker.randrange(1, 2 ** 40) for _ in range(200)]
    for n in sizes:
        for seed in range(3):
            expected, rng = _pair(n << 2 | seed)
            assert [below(rng, n) for _ in range(20)] == [
                expected.randrange(n) for _ in range(20)], (n, seed)
            assert rng.getstate() == expected.getstate(), (n, seed)


def test_below_refuses_an_empty_range():
    for n in (0, -3):
        for draw in (random.Random(0).randrange, lambda n: below(random.Random(0), n)):
            try:
                draw(n)
            except ValueError:
                continue
            raise AssertionError(f"a draw below {n} did not raise")


def _example(rng: random.Random, i: int, words: int) -> ParallelExample:
    turns = tuple(Turn(j % 2, " ".join(rng.choices("abcdefgh", k=rng.randint(1, words))))
                  for j in range(rng.randint(1, 14)))
    dialogue = Dialogue(f"d{i}", "s", ("A", "B")[:len(turns)], turns)
    return ParallelExample(dialogue, (SummaryRecord("a b", "annotated"),))


def test_outputs_draw_only_seed_getrandbits_and_random():
    # Long utterances take sample's set branch in token_mask and token_delete.
    rng = random.Random(4)
    items = [_example(rng, i, 30 if i % 2 else 4) for i in range(8)]
    mix = noising.TaskMix(weights=dict.fromkeys(noising.ALL_TASKS, 1.0))
    pool = roles.bundled_name_pool()
    allowed = {"seed", "getrandbits", "random", "getstate", "setstate"}
    refused = [name for name in dir(random.Random)
               if not name.startswith("_") and name not in allowed
               and callable(getattr(random.Random, name))]
    saved = {name: random.Random.__dict__.get(name) for name in refused}

    def refuse(*args, **kwargs):
        raise AssertionError("a draw went through another Random method")

    try:
        for name in refused:
            setattr(random.Random, name, refuse)
        lines = list(noising.pair_lines(items, mix, noising.NoisingConfig(), 300, seed=2))
        named = [roles.assign_role_group(ex.dialogue, pool, seed=3) for ex in items]
    finally:
        for name, method in saved.items():
            if method is None:
                delattr(random.Random, name)
            else:
                setattr(random.Random, name, method)
    assert {noising._pair_of_line(line).task for line in lines} == set(noising.ALL_TASKS)
    assert all(set(d.roles) <= set(pool.names) for d in named)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name} passed")
