"""Real-name role groups and role-replaced augmentation.

``assign_role_group`` standardizes the speaker labels of a dialogue by drawing
distinct names from a shipped pool, deterministically per (dialogue id, seed).
``augment_role_replace`` rewrites role names simultaneously across the role
table, every utterance, and every summary, so swap maps are legal and the
whole transformation is invertible by applying the inverse map.

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
from .errors import AmbiguousMapError, PoolTooSmallError
from .records import (
    RESERVED_MARKERS,
    Dialogue,
    ParallelExample,
    SummaryRecord,
    Turn,
    is_canonical,
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
            if not is_canonical(name) or any(m in name for m in RESERVED_MARKERS):
                raise ValueError(f"invalid pool name {name!r}")
        if type(self.names) is not tuple:
            return self._replace(names=tuple(self.names))

    def __len__(self) -> int:
        """The number of names (not of fields)."""
        return len(self.names)

    @classmethod
    def from_file(cls, path: str | Path) -> "NamePool":
        with open(path, encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
        return cls(names=tuple(names))


def bundled_name_pool() -> NamePool:
    """The name pool shipped with the package (over 4,000 distinct real names)."""
    text = resources.files("dialoprep").joinpath("data/names.txt").read_text("utf-8")
    return NamePool(names=tuple(line for line in text.splitlines() if line.strip()))


def assign_role_group(d: Dialogue, pool: NamePool, seed: int,
                      force: bool = True) -> Dialogue:
    """Replace the role table with distinct pool names, order-matched to the speakers.

    Deterministic given (d.id, seed): the draw uses a generator derived from
    both. With ``force=False`` a dialogue whose roles already all come from
    the pool is left untouched. Turns are never modified.
    """
    if len(pool) < len(d.roles):
        raise PoolTooSmallError(
            f"pool has {len(pool)} names but dialogue {d.id!r} has {len(d.roles)} roles")
    if not force and set(d.roles) <= set(pool.names):
        return d
    rng = derive_rng(seed, "roles", d.id)
    new_roles = tuple([pool.names[j] for j in sample_range(rng, len(pool), len(d.roles))])
    return Dialogue(id=d.id, source_dataset=d.source_dataset,
                    roles=new_roles, turns=d.turns)


@validated
class RoleMap(NamedTuple):
    """Injective old-name -> new-name mapping, applied simultaneously."""

    pairs: dict[str, str]

    def _check(self):
        old_names = list(self.pairs.keys())
        new_names = list(self.pairs.values())
        if len(set(new_names)) != len(new_names):
            raise AmbiguousMapError("role map is not injective")
        for name in old_names + new_names:
            if not is_canonical(name) or any(m in name for m in RESERVED_MARKERS):
                raise AmbiguousMapError(f"invalid role name {name!r}")
        # A multi-word name containing another old name as a whole word makes
        # match order ambiguous; reject up front.
        for a in old_names:
            for b in old_names:
                if a != b and _word_pattern(a).search(b):
                    raise AmbiguousMapError(
                        f"old name {a!r} collides with old name {b!r} at a word boundary")

    def inverse(self) -> "RoleMap":
        return RoleMap(pairs={new: old for old, new in self.pairs.items()})

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


def augment_role_replace(ex: ParallelExample, role_map: RoleMap) -> ParallelExample:
    """Replace every word-boundary occurrence of each old name in roles,
    utterances and summaries with its new name, simultaneously.

    Simultaneous means no output of one rule feeds another, so a swap map
    {A->B, B->A} applied twice restores the input bit-exact. Summaries whose
    text changed get origin ``augmented``.
    """
    if not role_map.pairs:
        return ex
    mentioned = set(ex.dialogue.roles)
    unknown = set(role_map.pairs) - mentioned
    if unknown:
        raise AmbiguousMapError(
            f"map keys {sorted(unknown)} are not role names of dialogue {ex.dialogue.id!r}")
    # A new name that is not itself remapped would merge with pre-existing
    # occurrences and break invertibility; refuse such examples.
    texts = [*ex.dialogue.roles,
             *(t.text for t in ex.dialogue.turns),
             *(s.text for s in ex.summaries)]
    for old, new in role_map.pairs.items():
        if new in role_map.pairs:
            continue
        pattern = _word_pattern(new)
        if any(pattern.search(text) for text in texts):
            raise AmbiguousMapError(
                f"new name {new!r} already occurs in dialogue {ex.dialogue.id!r}")

    pattern = _combined_pattern(list(role_map.pairs))

    def substitute(text: str) -> str:
        return pattern.sub(lambda m: role_map.pairs[m.group(0)], text)

    dialogue = Dialogue(
        id=ex.dialogue.id,
        source_dataset=ex.dialogue.source_dataset,
        roles=tuple(substitute(r) for r in ex.dialogue.roles),
        turns=tuple(Turn(t.role_index, substitute(t.text)) for t in ex.dialogue.turns),
    )
    summaries = []
    for s in ex.summaries:
        new_text = substitute(s.text)
        origin = "augmented" if new_text != s.text else s.origin
        summaries.append(SummaryRecord(text=new_text, origin=origin))
    return ParallelExample(dialogue=dialogue, summaries=tuple(summaries))
