"""``import repro.planner`` loads no network-topology or contention model:
the repair names load :mod:`repro.planner.repair` on first use (PEP 562),
and every public name stays importable from the package."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

REPAIR_NAMES = ("ClusterEvent", "NodeLoss", "Preemption", "RepairResult",
                "ScaleUp", "repair", "survivor_map")


def run(code):
    """Run ``code`` in a fresh interpreter; returns its stdout lines."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_import_loads_no_comm_topology_or_contention():
    loaded = run(
        "import sys, repro.planner\n"
        "print(*sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    assert "repro.planner" in loaded
    assert "repro.comm.topology" not in loaded
    assert "repro.comm.contention" not in loaded
    assert "repro.planner.repair" not in loaded


def test_every_public_name_is_importable():
    names = run(
        "import repro.planner as p\n"
        "from repro.planner import *\n"
        "print(*sorted(n for n in p.__all__ if n not in globals()))\n"
        "print(p.repair.__module__, callable(p.repair))"
    )
    assert names == ["repro.planner.repair", "True"]


def test_repair_stays_the_function_after_the_submodule_loads():
    """Loading ``repro.planner.repair`` first binds the submodule to the
    package's ``repair`` name; the name stays the function."""
    out = run(
        "from repro.planner.repair import NodeLoss\n"
        "import repro.planner\n"
        "from repro.planner import repair, " + ", ".join(REPAIR_NAMES) + "\n"
        "print(type(repro.planner.repair).__name__, repair is "
        "repro.planner.repair, NodeLoss is repro.planner.NodeLoss)"
    )
    assert out == ["function", "True", "True"]
