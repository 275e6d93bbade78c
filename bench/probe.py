"""A fixed task that gauges how fast the machine runs the stages' kind of work.

    python bench/probe.py

It starts an interpreter, imports the program's third-party dependencies
(numpy and requests) and does pure-Python work like the stages': counting
tokens, an LCS table over two token lists, a JSON dump and Jaccard
similarities between token sets. It imports nothing from dialoprep, so no
change to the program moves its time.
"""

import json

import numpy  # noqa: F401  (imported for its cost, as every stage does)
import requests  # noqa: F401

tokens = [f"w{i * 7919 % 1543}" for i in range(4000)]
counts: dict[str, int] = {}
for token in tokens:
    counts[token] = counts.get(token, 0) + 1
a, b = tokens[:200], tokens[100:300]
previous = [0] * (len(b) + 1)
for x in a:
    current = [0]
    for j, y in enumerate(b):
        current.append(previous[j] + 1 if x == y else max(previous[j + 1], current[j]))
    previous = current
json.dumps(sorted(counts.items()))
sets = [frozenset(tokens[i:i + 60]) for i in range(0, 3000, 25)]
for i, s in enumerate(sets):
    for t in sets[:i]:
        len(s & t) / len(s | t)
