#!/usr/bin/env python
"""Documentation checks, run by the CI ``docs`` job.

Five checks:

1. **Intra-repo links** — every relative markdown link in the checked
   files must point at a file (or directory) that exists.  External
   links (``http(s)://``, ``mailto:``) and pure fragments (``#...``)
   are ignored; a trailing ``#fragment`` on a relative link is stripped
   before the existence check.
2. **Doctests** — fenced ```` ```python ```` blocks in the
   :data:`DOCTEST_DOCS` files are extracted *in order into one shared
   namespace per file* and executed with :mod:`doctest`, so the
   documented examples cannot rot.
3. **Config coverage** — every ``PlannerConfig`` field name must appear
   somewhere in the docs corpus, so a new planner knob cannot land
   undocumented.
4. **Documented commands** — every ``python -m repro …`` or ``repro …``
   command line in a fenced block of :data:`LINKED_DOCS` (``\\``
   continuations joined, a ``$`` prompt, environment assignments and
   ``# comments`` dropped) must parse with the CLI's own argument
   parser.  Commands are parsed, never run.
5. **Search accounting coverage** — every field of the stage search's
   per-sweep and per-level records, every search total and every
   ``dp.*``/``search.*`` metric name the run publishes must appear in
   :data:`OBSERVABILITY_DOC`, so a new counter cannot land undocumented.

Usage::

    python tools/check_docs.py            # from the repository root
    python tools/check_docs.py --verbose
"""

from __future__ import annotations

import argparse
import contextlib
import doctest
import io
import re
import shlex
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: files whose relative links must resolve (generated / scratch files
#: like ISSUE.md and SNIPPETS.md are deliberately out of scope)
LINKED_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ALGORITHMS.md",
    "docs/COMMUNICATION.md",
    "docs/HETEROGENEOUS.md",
    "docs/INCREMENTAL.md",
    "docs/INDEX.md",
    "docs/OBSERVABILITY.md",
    "docs/SCALING.md",
    "docs/SERVICE.md",
    "docs/SERVING_SIM.md",
    "docs/VERIFICATION.md",
    "examples/README.md",
)

#: files whose fenced python examples run as doctests
DOCTEST_DOCS = (
    "docs/OBSERVABILITY.md",
    "docs/COMMUNICATION.md",
    "docs/HETEROGENEOUS.md",
    "docs/INCREMENTAL.md",
    "docs/SCALING.md",
    "docs/SERVICE.md",
    "docs/SERVING_SIM.md",
)

#: files searched by the PlannerConfig coverage check
COVERAGE_DOCS = LINKED_DOCS

#: the document that must name every search record field and metric
OBSERVABILITY_DOC = "docs/OBSERVABILITY.md"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_ANY_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)


def check_links(root: Path, rel_paths=LINKED_DOCS) -> List[str]:
    """Return one error string per broken relative link."""
    errors: List[str] = []
    for rel in rel_paths:
        md = root / rel
        if not md.exists():
            errors.append(f"{rel}: file listed in LINKED_DOCS is missing")
            continue
        for target in _LINK_RE.findall(md.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (md.parent / target_path).resolve()
            if not resolved.exists():
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def extract_python_blocks(text: str) -> List[str]:
    return [m.group(1) for m in _FENCE_RE.finditer(text)]


def run_doctests(
    root: Path, rel_paths=DOCTEST_DOCS, verbose: bool = False
) -> Tuple[int, int]:
    """Run fenced examples; returns (failures, attempts)."""
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        verbose=verbose, optionflags=doctest.ELLIPSIS
    )
    failures = attempts = 0
    for rel in rel_paths:
        md = root / rel
        blocks = extract_python_blocks(md.read_text())
        source = "\n".join(blocks)
        globs: dict = {}
        test = parser.get_doctest(source, globs, rel, str(md), 0)
        result = runner.run(test, clear_globs=False)
        failures += result.failed
        attempts += result.attempted
    return failures, attempts


def check_config_coverage(root: Path, rel_paths=COVERAGE_DOCS) -> List[str]:
    """One error per config field absent from the docs corpus.

    Covers every ``PlannerConfig``, ``ClusterSpec`` and ``DeviceClass``
    field: a field is covered when its exact name appears as a whole
    word in any of ``rel_paths`` — enough to guarantee a reader can
    grep the docs for the knob they are holding.
    """
    import dataclasses

    sys.path.insert(0, str(root / "src"))
    try:
        from repro.hardware.cluster import ClusterSpec, DeviceClass
        from repro.planner.context import PlannerConfig
    finally:
        sys.path.pop(0)

    corpus = "\n".join(
        (root / rel).read_text() for rel in rel_paths if (root / rel).exists()
    )
    errors: List[str] = []
    for cls in (PlannerConfig, ClusterSpec, DeviceClass):
        for field in dataclasses.fields(cls):
            if not re.search(rf"\b{re.escape(field.name)}\b", corpus):
                errors.append(
                    f"{cls.__name__}.{field.name}: not mentioned in any "
                    f"doc ({', '.join(rel_paths[:3])}, ...)"
                )
    return errors


def search_accounting_names() -> List[str]:
    """The record fields, the totals and the ``dp.*``/``search.*``
    metric names (point labels dropped) of the stage search: a run with
    one infeasible sweep and one level publishes every metric name."""
    from repro.obs.metrics import MetricsRegistry
    from repro.partitioner.stage_dp import (
        TOTAL_METRICS,
        DPRun,
        LevelRecord,
        SweepRecord,
    )

    run = DPRun(None, None)
    run.sweeps.append(
        SweepRecord(1, 1, 1, range(1, 2), None, "filled", 1, 0, 0, 0, ())
    )
    run.levels.append(LevelRecord((), False, False, 0))
    metrics = MetricsRegistry()
    run.publish(metrics)
    published = {
        name.split("[")[0] for name in metrics.snapshot()
        if name.startswith(("dp.", "search."))
    }
    return list(dict.fromkeys([
        *SweepRecord._fields, *LevelRecord._fields, *TOTAL_METRICS,
        *sorted(published),
    ]))


def check_search_accounting(root: Path, rel: str = OBSERVABILITY_DOC
                            ) -> List[str]:
    """One error per search record field, total or published metric
    name that ``rel`` does not mention as a whole word."""
    sys.path.insert(0, str(root / "src"))
    try:
        names = search_accounting_names()
    finally:
        sys.path.pop(0)
    text = (root / rel).read_text()
    return [
        f"{rel}: search record field or metric {name!r} not documented"
        for name in names
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", text)
    ]


def documented_commands(text: str) -> List[Tuple[int, List[str]]]:
    """``(line, argv)`` for each ``repro`` command in a fenced block;
    ``argv`` excludes the ``python -m repro`` / ``repro`` prefix."""
    commands = []
    for fence in _ANY_FENCE_RE.finditer(text):
        first = text.count("\n", 0, fence.start(1)) + 1
        lines = fence.group(1).split("\n")
        i = 0
        while i < len(lines):
            start, line = first + i, lines[i]
            while line.endswith("\\") and i + 1 < len(lines):
                i += 1
                line = line[:-1] + " " + lines[i]
            i += 1
            try:
                words = shlex.split(line.removeprefix("$ "), comments=True)
            except ValueError:  # unbalanced quotes: not a command line
                continue
            while words and re.fullmatch(r"\w+=\S*", words[0]):
                words.pop(0)
            if words[:3] == ["python", "-m", "repro"]:
                words = words[3:]
            elif words[:1] == ["repro"]:
                words = words[1:]
            else:
                continue
            if words[-1:] == ["&"]:
                words.pop()
            commands.append((start, words))
    return commands


def check_commands(root: Path, rel_paths=LINKED_DOCS) -> List[str]:
    """One error per documented command the CLI parser rejects."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)

    parser = build_parser()
    errors: List[str] = []
    for rel in rel_paths:
        md = root / rel
        if not md.exists():
            continue
        for line, argv in documented_commands(md.read_text()):
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    parser.parse_args(argv)
            except SystemExit as exc:
                if exc.code:
                    message = stderr.getvalue().strip().splitlines()[-1]
                    errors.append(f"{rel}:{line}: {message}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO_ROOT)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    rc = 0
    link_errors = check_links(args.root)
    if link_errors:
        rc = 1
        for err in link_errors:
            print(f"LINK FAIL  {err}")
    else:
        print(f"links OK ({len(LINKED_DOCS)} files checked)")

    failures, attempts = run_doctests(args.root, verbose=args.verbose)
    if failures:
        rc = 1
        print(f"doctest FAIL ({failures}/{attempts} examples failed)")
    elif attempts == 0:
        rc = 1
        print("doctest FAIL (no examples found — fence regex broken?)")
    else:
        print(f"doctests OK ({attempts} examples)")

    coverage_errors = check_config_coverage(args.root)
    if coverage_errors:
        rc = 1
        for err in coverage_errors:
            print(f"COVERAGE FAIL  {err}")
    else:
        print("PlannerConfig coverage OK (every field documented)")

    accounting_errors = check_search_accounting(args.root)
    if accounting_errors:
        rc = 1
        for err in accounting_errors:
            print(f"ACCOUNTING FAIL  {err}")
    else:
        print("search accounting coverage OK (every record field and "
              "metric documented)")

    command_errors = check_commands(args.root)
    if command_errors:
        rc = 1
        for err in command_errors:
            print(f"COMMAND FAIL  {err}")
    else:
        print("documented commands OK (every one parses)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
