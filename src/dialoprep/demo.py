"""Canonical stage list for the bundled sample pipeline.

The demo runs every deterministic stage over data/sample/: ingest, clean,
role assignment, mock annotation, pair generation, and statistics. Golden
outputs are regenerated by scripts/make_golden.py and verified byte-exact by
the acceptance suite, both of which take their argv lists from here so they
can never drift apart.
"""

from __future__ import annotations

from pathlib import Path

SAMPLE_SEED = 3442
SAMPLE_PAIR_COUNT = 200
SAMPLE_MOCK = "digest:12"

GOLDEN_FILES = (
    "corpus.dlg",
    "ingest_report.json",
    "cleaned.dlg",
    "removals.jsonl",
    "named.dlg",
    "annotated.plx",
    "annotated.plx.failures.jsonl",
    "pairs.jsonl",
    "stats.json",
    "corpus.dlg.manifest.json",
    "cleaned.dlg.manifest.json",
    "named.dlg.manifest.json",
    "annotated.plx.manifest.json",
    "pairs.jsonl.manifest.json",
    "stats.json.manifest.json",
)


def sample_pipeline_argv(raw: str | Path, spec: str | Path,
                         outdir: str | Path) -> list[list[str]]:
    """The exact CLI invocations of the sample pipeline, in order."""
    out = Path(outdir)
    return [
        ["ingest", "--in", str(raw), "--spec", str(spec),
         "--out", str(out / "corpus.dlg"), "--report", str(out / "ingest_report.json")],
        ["clean", "--in", str(out / "corpus.dlg"), "--out", str(out / "cleaned.dlg"),
         "--report", str(out / "removals.jsonl")],
        ["roles", "--in", str(out / "cleaned.dlg"), "--out", str(out / "named.dlg"),
         "--seed", str(SAMPLE_SEED)],
        ["annotate", "--in", str(out / "named.dlg"), "--out", str(out / "annotated.plx"),
         "--mock", SAMPLE_MOCK],
        ["noise", "--in", str(out / "named.dlg"), "--out", str(out / "pairs.jsonl"),
         "--count", str(SAMPLE_PAIR_COUNT), "--seed", str(SAMPLE_SEED)],
        ["stats", "--in", str(out / "annotated.plx"), "--out", str(out / "stats.json")],
    ]
