from __future__ import annotations

import random
import re

import pytest

from dialoprep.errors import PipelineError
from dialoprep.records import (
    Dialogue,
    SummaryRecord,
    Turn,
    validate_dialogue,
)
from dialoprep.roles import (
    NamePool,
    RoleMap,
    assign_role_group,
    augment_role_replace,
    bundled_name_pool,
)

from conftest import make_dialogue

POOL = NamePool(names=("Danny", "Alejandra", "Marcus", "Priya", "Wei", "Sofia"))


def _dlg():
    return Dialogue(id="d1", source_dataset="u", roles=("speaker_a", "speaker_b"),
                    turns=(Turn(0, "are you coming to the meeting"),
                           Turn(1, "yes speaker_a i will be there")))


def test_bundled_pool_is_large_and_distinct():
    pool = bundled_name_pool()
    assert len(pool) > 4000
    assert len(set(pool.names)) == len(pool.names)


def test_pool_rejects_duplicates_and_markers():
    with pytest.raises(ValueError):
        NamePool(names=("Ann", "Ann"))
    with pytest.raises(ValueError):
        NamePool(names=("Ann", "x <mask> y"))


@pytest.mark.parametrize("name", ["Ann  Lee", "Bob\tKay", " Ann", "Ann ", "Ann\u00a0Lee"])
def test_pool_rejects_names_that_are_not_canonical(name):
    # A role name must be whitespace-canonical, or the next stage refuses the corpus.
    with pytest.raises(ValueError, match="invalid pool name"):
        NamePool(names=("Cy", name))


@pytest.mark.parametrize("line", ["Ann  Lee", "Bob\tKay"])
def test_pool_file_rejects_names_that_are_not_canonical(tmp_path, line):
    path = tmp_path / "pool.txt"
    path.write_text(f"Cy\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid pool name"):
        NamePool.from_file(path)


def test_assign_run_to_run_stable():
    first = assign_role_group(_dlg(), POOL, seed=3442)
    second = assign_role_group(_dlg(), POOL, seed=3442)
    assert first == second
    assert len(set(first.roles)) == 2
    assert all(r in POOL.names for r in first.roles)
    # The draw depends on the id, seed and pool alone: a second run keeps the names.
    assert assign_role_group(first, POOL, seed=3442) == first


def test_assign_different_seeds_differ_somewhere():
    rng = random.Random(0)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(10)]
    with_a = [assign_role_group(d, POOL, seed=1) for d in dialogues]
    with_b = [assign_role_group(d, POOL, seed=2) for d in dialogues]
    assert any(x.roles != y.roles for x, y in zip(with_a, with_b))


def test_assign_varies_per_dialogue_id():
    rng = random.Random(0)
    dialogues = [make_dialogue(rng, f"dlg-{i}", n_turns=4) for i in range(12)]
    assigned = [assign_role_group(d, POOL, seed=5) for d in dialogues]
    assert all(validate_dialogue(d) == [] for d in assigned)
    # draws are per dialogue id, so a batch is not one repeated role group
    assert len({d.roles for d in assigned}) > 1


def test_assign_preserves_turns_and_indices():
    before = _dlg()
    after = assign_role_group(before, POOL, seed=99)
    assert after.turns == before.turns
    assert [t.role_index for t in after.turns] == [t.role_index for t in before.turns]
    assert len(after.roles) == len(before.roles)


def test_assign_pool_too_small():
    tiny = NamePool(names=("OnlyOne",))
    with pytest.raises(PipelineError,
                       match=re.escape("pool has 1 names but dialogue 'd1' has 2 roles")):
        assign_role_group(_dlg(), tiny, seed=1)


# ---------------------------------------------------------------------------
# Role-replaced augmentation
# ---------------------------------------------------------------------------

def _support_example() -> Dialogue:
    return Dialogue(
        id="cs1", source_dataset="u", roles=("Agent", "Customer"),
        turns=(Turn(0, "hello this is Agent speaking"),
               Turn(1, "hi Agent my parcel is missing"),
               Turn(0, "sorry Customer let me check"),
               Turn(1, "thanks")),
        summaries=(SummaryRecord(
            "Customer reports a missing parcel and Agent checks. "
            "Agent's reply is pending.", "annotated"),))


def test_customer_service_map_rewrites_everywhere():
    augmented = augment_role_replace(
        _support_example(), RoleMap(pairs={"Agent": "Danny", "Customer": "Alejandra"}))
    assert augmented.roles == ("Danny", "Alejandra")
    joined = " ".join(t.text for t in augmented.turns)
    summary = augmented.summaries[0].text
    for old in ("Agent", "Customer"):
        assert old not in joined.split() and old not in summary.split()
    assert "Danny" in joined and "Alejandra" in joined
    assert "Danny" in summary and "Alejandra" in summary
    assert "Danny's reply is pending." in summary  # possessive preserved
    assert augmented.summaries[0].origin == "augmented"


def test_empty_map_identity():
    ex = _support_example()
    assert augment_role_replace(ex, RoleMap(pairs={})) == ex


def test_word_boundary_no_substring_corruption():
    ex = Dialogue(id="w", source_dataset="u", roles=("Ann", "Bo"),
                  turns=(Turn(0, "the Annual report from Ann"), Turn(1, "ok Ann")),
                  summaries=(SummaryRecord("Ann and Bo talk.", "annotated"),))
    out = augment_role_replace(ex, RoleMap(pairs={"Ann": "Priya", "Bo": "Wei"}))
    assert out.turns[0].text == "the Annual report from Priya"
    assert out.summaries[0].text == "Priya and Wei talk."


def test_replacement_is_case_sensitive():
    ex = Dialogue(id="c", source_dataset="u", roles=("Max", "Jo"),
                  turns=(Turn(0, "the max value and Max agree"), Turn(1, "fine")),
                  summaries=(SummaryRecord("Max wins.", "annotated"),))
    out = augment_role_replace(ex, RoleMap(pairs={"Max": "Omar", "Jo": "Ben"}))
    assert out.turns[0].text == "the max value and Omar agree"


def test_swap_map_involution_on_texts():
    ex = _support_example()
    swap = RoleMap(pairs={"Agent": "Customer", "Customer": "Agent"})
    once = augment_role_replace(ex, swap)
    assert once.roles == ("Customer", "Agent")
    twice = augment_role_replace(once, swap)
    assert twice._replace(summaries=ex.summaries) == ex
    assert [s.text for s in twice.summaries] == [s.text for s in ex.summaries]


def test_swap_map_involution_bit_exact_on_augmented_example():
    base = augment_role_replace(
        _support_example(), RoleMap(pairs={"Agent": "Danny", "Customer": "Alejandra"}))
    swap = RoleMap(pairs={"Danny": "Alejandra", "Alejandra": "Danny"})
    assert augment_role_replace(augment_role_replace(base, swap), swap) == base


def test_inverse_map_restores_texts():
    ex = _support_example()
    forward = RoleMap(pairs={"Agent": "Danny", "Customer": "Alejandra"})
    applied = augment_role_replace(ex, forward)
    inverse = RoleMap(pairs={new: old for old, new in forward.pairs.items()})
    back = augment_role_replace(applied, inverse)
    assert back._replace(summaries=ex.summaries) == ex
    assert [s.text for s in back.summaries] == [s.text for s in ex.summaries]


def test_map_must_cover_only_mentioned_roles():
    with pytest.raises(PipelineError, match=re.escape(
            "map keys ['Nobody'] are not role names of dialogue 'cs1'")):
        augment_role_replace(_support_example(), RoleMap(pairs={"Nobody": "Danny"}))


def test_map_injective_required():
    with pytest.raises(PipelineError, match=re.escape("role map is not injective")):
        RoleMap(pairs={"A": "Z", "B": "Z"})


@pytest.mark.parametrize("pairs, name", [({"Agent": "Zed  Q"}, "Zed  Q"),
                                         ({"Agent": "Zed\tQ"}, "Zed\tQ"),
                                         ({"Agent": " Zed"}, " Zed"),
                                         ({"Agent ": "Zed"}, "Agent ")],
                         ids=["pairs0", "pairs1", "pairs2", "pairs3"])
def test_map_rejects_names_that_are_not_canonical(pairs, name):
    with pytest.raises(PipelineError, match=re.escape(f"invalid role name {name!r}")):
        RoleMap(pairs=pairs)


def test_map_rejects_word_boundary_collision_between_old_names():
    with pytest.raises(PipelineError, match=re.escape(
            "old name 'Ann' collides with old name 'Ann Lee' at a word boundary")):
        RoleMap(pairs={"Ann": "X", "Ann Lee": "Y"})


def test_map_rejects_word_boundary_collision_between_new_names():
    # Its swapped map, which must undo it, would have colliding old names.
    with pytest.raises(PipelineError, match=re.escape(
            "new name 'Bo' collides with new name 'Bo Li' at a word boundary")):
        RoleMap(pairs={"Ann": "Bo", "Cy": "Bo Li"})


@pytest.mark.parametrize("pairs", [
    {"Agent": "Bo Li", "Customer": "Cy"},
    {"Agent": "Customer", "Customer": "Agent"},
    {"Agent": "Li Bo", "Customer": "Bo Li"},
    # Applied, it leaves "Agent" only inside "Agent Smith", an old name of the
    # swapped map, which that map replaces whole.
    {"Agent": "Customer", "Customer": "Agent Smith"},
])
def test_swapped_map_of_an_accepted_map_restores_the_example(pairs):
    ex = _support_example()
    applied = augment_role_replace(ex, RoleMap(pairs=pairs))
    back = augment_role_replace(applied, RoleMap(pairs={new: old for old, new in pairs.items()}))
    assert back._replace(summaries=ex.summaries) == ex
    assert [s.text for s in back.summaries] == [s.text for s in ex.summaries]


def test_new_name_already_present_is_ambiguous():
    ex = Dialogue(id="amb", source_dataset="u", roles=("Agent", "Customer"),
                  turns=(Turn(0, "i spoke to Danny yesterday"), Turn(1, "ok")),
                  summaries=(SummaryRecord("They talk.", "annotated"),))
    with pytest.raises(PipelineError,
                       match=re.escape("new name 'Danny' already occurs in dialogue 'amb'")):
        augment_role_replace(ex, RoleMap(pairs={"Agent": "Danny", "Customer": "Alejandra"}))


def test_new_name_outside_every_old_name_is_ambiguous():
    # "Agent" inside "Agent Smith" is replaced with it; the bare one would merge.
    ex = Dialogue(id="amb", source_dataset="u", roles=("Customer", "Agent Smith"),
                  turns=(Turn(0, "is Agent Smith the Agent on duty"), Turn(1, "yes")))
    with pytest.raises(PipelineError,
                       match=re.escape("new name 'Agent' already occurs in dialogue 'amb'")):
        augment_role_replace(ex, RoleMap(pairs={"Customer": "Agent",
                                                "Agent Smith": "Customer"}))


def test_token_count_preserved_for_single_token_names():
    ex = _support_example()
    out = augment_role_replace(
        ex, RoleMap(pairs={"Agent": "Danny", "Customer": "Alejandra"}))
    for before, after in zip(ex.turns, out.turns):
        assert len(before.text.split()) == len(after.text.split())
