"""The docs checker itself (tools/check_docs.py): the repo's own docs
must pass, and the checker must actually catch breakage."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"

spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepoDocs:
    def test_repo_docs_pass(self):
        result = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "links OK" in result.stdout
        assert "doctests OK" in result.stdout
        assert "documented commands OK" in result.stdout

    def test_observability_examples_exist(self):
        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        blocks = check_docs.extract_python_blocks(text)
        assert len(blocks) >= 4
        assert any(">>>" in b for b in blocks)


class TestChecker:
    def test_broken_link_detected(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "see [here](missing.md) and [ok](other.md) and "
            "[web](https://example.com) and [frag](#section)\n"
        )
        (tmp_path / "other.md").write_text("x\n")
        errors = check_docs.check_links(tmp_path, ["doc.md"])
        assert errors == ["doc.md: broken link -> missing.md"]

    def test_fragment_on_relative_link_stripped(self, tmp_path):
        (tmp_path / "doc.md").write_text("[s](other.md#part)\n")
        (tmp_path / "other.md").write_text("x\n")
        assert check_docs.check_links(tmp_path, ["doc.md"]) == []

    def test_failing_doctest_detected(self, tmp_path):
        (tmp_path / "bad.md").write_text(
            "```python\n>>> 1 + 1\n3\n\n```\n"
        )
        failures, attempts = check_docs.run_doctests(tmp_path, ["bad.md"])
        assert (failures, attempts) == (1, 1)

    def test_state_shared_across_blocks(self, tmp_path):
        (tmp_path / "two.md").write_text(
            "first:\n```python\n>>> x = 2\n\n```\n"
            "later:\n```python\n>>> x + 1\n3\n\n```\n"
        )
        failures, attempts = check_docs.run_doctests(tmp_path, ["two.md"])
        assert (failures, attempts) == (0, 2)

    def test_unparsable_command_detected(self, tmp_path):
        (tmp_path / "cli.md").write_text(
            "```console\n"
            "$ python -m repro plan --model bert \\\n"
            "    --nodes 2 --explain   # fine\n"
            "TaskGraph(...) output lines are not commands\n"
            "PYTHONPATH=src python -m repro.verify.harness --seeds 2\n"
            "repro plan --model bert \\\n"
            "    --cluster v100x8\n"
            "python -m repro serve --port 0 &\n"
            "```\n"
        )
        errors = check_docs.check_commands(REPO_ROOT, [tmp_path / "cli.md"])
        assert len(errors) == 1
        assert errors[0].endswith("unrecognized arguments: --cluster v100x8")
        assert f"{tmp_path / 'cli.md'}:6:" in errors[0]

    def test_undocumented_search_counter_detected(self, tmp_path):
        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        doc = tmp_path / "obs.md"
        doc.write_text(
            text.replace("dp.band_width_max", "dp.widest")
            .replace("fell_back", "fell")
        )
        errors = check_docs.check_search_accounting(REPO_ROOT, doc)
        assert len(errors) == 2
        assert "'fell_back'" in errors[0]
        assert "'dp.band_width_max'" in errors[1]
        assert check_docs.check_search_accounting(REPO_ROOT) == []
