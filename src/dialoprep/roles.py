"""Real-name role groups and role-replaced augmentation.

``assign_role_group`` standardizes the speaker labels of a dialogue by drawing
distinct names from a shipped pool, deterministically per (dialogue id, seed).
``augment_role_replace`` rewrites role names simultaneously across the role
table, every utterance, and every summary, so swap maps are legal and the
whole transformation is undone by the map with its pairs swapped.

Names are matched as whole words, case-sensitive; possessive forms survive
because the trailing ``'s`` sits outside the word boundary. Pronouns are never
rewritten. A pool or map name must be a valid role name: whitespace-canonical
(:func:`records.is_canonical`), with no reserved marker.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from . import jsonl
from .errors import PipelineError
from .records import (
    Dialogue,
    SummaryRecord,
    Turn,
    is_canonical,
    markers_in,
    validated,
)
from .seeding import derive_rng, sample_range


@validated
class NamePool(NamedTuple):
    names: tuple[str, ...]

    def _check(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("name pool contains duplicates")
        for name in self.names:
            if not is_canonical(name) or markers_in(name):
                raise ValueError(f"invalid pool name {name!r}")
        if type(self.names) is not tuple:
            return self._replace(names=tuple(self.names))

    def __len__(self) -> int:
        """The number of names (not of fields)."""
        return len(self.names)

    @classmethod
    def from_file(cls, path: str | Path) -> "NamePool":
        # utf-8-sig: a byte-order mark is not part of the first name.
        with open(path, encoding="utf-8-sig") as fh:
            names = [line.strip() for line in fh if line.strip()]
        return cls(names=tuple(names))


def bundled_name_pool() -> NamePool:
    """The name pool shipped with the package (over 4,000 distinct real names),
    read as :meth:`NamePool.from_file` reads any pool."""
    with resources.as_file(resources.files("dialoprep") / "data" / "names.txt") as path:
        return NamePool.from_file(path)


def assign_role_group(d: Dialogue, pool: NamePool, seed: int) -> Dialogue:
    """Replace the role table with distinct pool names, order-matched to the speakers.

    Deterministic given (d.id, seed): the draw uses a generator derived from
    both, so a dialogue renamed again at the same seed and pool keeps its
    names. Turns are never modified.
    """
    if len(pool) < len(d.roles):
        raise PipelineError(
            f"pool has {len(pool)} names but dialogue {d.id!r} has {len(d.roles)} roles")
    rng = derive_rng(seed, "roles", d.id)
    new_roles = tuple([pool.names[j] for j in sample_range(rng, len(pool), len(d.roles))])
    return d._replace(roles=new_roles)


@validated
class RoleMap(NamedTuple):
    """Injective old-name -> new-name mapping, applied simultaneously."""

    pairs: dict[str, str]

    def _check(self):
        old_names = list(self.pairs.keys())
        new_names = list(self.pairs.values())
        if len(set(new_names)) != len(new_names):
            raise PipelineError("role map is not injective")
        for name in old_names + new_names:
            if not is_canonical(name) or markers_in(name):
                raise PipelineError(f"invalid role name {name!r}")
        # A multi-word name containing another old name as a whole word makes
        # match order ambiguous; reject up front. New names are the old names
        # of the swapped map, which must undo this one.
        for side, names in (("old", old_names), ("new", new_names)):
            for a in names:
                for b in names:
                    if a != b and _word_pattern(a).search(b):
                        raise PipelineError(f"{side} name {a!r} collides with "
                                            f"{side} name {b!r} at a word boundary")

    @classmethod
    def from_file(cls, path: str | Path) -> "RoleMap":
        obj = jsonl.read_object(path)
        for old, new in obj.items():
            if not isinstance(new, str):
                raise ValueError(f"{path}: the new name for {old!r} must be a string")
        return cls(pairs=obj)


def _word_pattern(name: str) -> re.Pattern:
    return re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")


def _combined_pattern(names: list[str]) -> re.Pattern:
    # Longest alternative first so multi-word names win over their prefixes.
    ordered = sorted(names, key=len, reverse=True)
    alternation = "|".join(re.escape(n) for n in ordered)
    return re.compile(rf"(?<!\w)(?:{alternation})(?!\w)")


def augment_role_replace(ex: Dialogue, role_map: RoleMap) -> Dialogue:
    """Replace every word-boundary occurrence of each old name in roles,
    utterances and summaries with its new name, simultaneously.

    Simultaneous means no output of one rule feeds another, so a swap map
    {A->B, B->A} applied twice restores the input bit-exact. Summaries whose
    text changed get origin ``augmented``.
    """
    if not role_map.pairs:
        return ex
    mentioned = set(ex.roles)
    unknown = set(role_map.pairs) - mentioned
    if unknown:
        raise PipelineError(
            f"map keys {sorted(unknown)} are not role names of dialogue {ex.id!r}")
    # A new name that is not itself remapped would merge with pre-existing
    # occurrences and break invertibility; refuse such examples. An
    # occurrence inside an old name is replaced with it, so only the text
    # between old names is searched.
    pattern = _combined_pattern(list(role_map.pairs))
    fresh = [new for new in role_map.pairs.values() if new not in role_map.pairs]
    if fresh:
        clash = _combined_pattern(fresh)
        for text in (*ex.roles, *(t.text for t in ex.turns), *(s.text for s in ex.summaries)):
            found = next(filter(None, map(clash.search, pattern.split(text))), None)
            if found:
                raise PipelineError(
                    f"new name {found.group(0)!r} already occurs in dialogue {ex.id!r}")

    def substitute(text: str) -> str:
        return pattern.sub(lambda m: role_map.pairs[m.group(0)], text)

    def summary(s: SummaryRecord) -> SummaryRecord:
        new_text = substitute(s.text)
        return SummaryRecord(new_text, "augmented" if new_text != s.text else s.origin)

    return ex._replace(roles=tuple(map(substitute, ex.roles)),
                       turns=tuple(Turn(t.role_index, substitute(t.text)) for t in ex.turns),
                       summaries=tuple(map(summary, ex.summaries)))
