"""Chaos test: SIGKILL a live sweep, resume it, get identical results.

The crash-safety claim the journal makes is only honest if it survives
a *real* kill — not a polite exception, but SIGKILL delivered to the
sweep process at a random (seeded) moment while workers are mid-cell.
The relaunched sweep must replay whatever the journal made durable and
re-execute only the rest, ending with exactly the rows an
uninterrupted run produces.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.faults.plan import FaultPlan
from repro.parallel.journal import JOURNAL_FILENAME, read_journal
from repro.parallel.sweep import run_sweep
from repro.pipeline.experiment import ExperimentGrid
from repro.units import MIB
from tests.conftest import TinyApp

REPO_ROOT = Path(__file__).resolve().parents[2]

GRID = ExperimentGrid(
    budgets=(32 * MIB, 64 * MIB), strategies=("density", "misses-0%")
)

#: Every cell hangs briefly, stretching the sweep's wall-clock window
#: so the kill lands mid-flight instead of after completion.
PLAN = FaultPlan(seed=7, cell_hang_rate=1.0, cell_hang_seconds=0.4)

VICTIM_SCRIPT = """
import sys
from repro.faults.plan import FaultPlan
from repro.parallel.sweep import run_sweep
from repro.pipeline.experiment import ExperimentGrid
from repro.units import MIB
from tests.conftest import TinyApp

grid = ExperimentGrid(
    budgets=(32 * MIB, 64 * MIB), strategies=("density", "misses-0%")
)
plan = FaultPlan(seed=7, cell_hang_rate=1.0, cell_hang_seconds=0.4)
print("START", flush=True)
run_sweep(
    [TinyApp()], grid=grid, jobs=2, seed=0, fault_plan=plan,
    journal_dir=sys.argv[1],
)
print("DONE", flush=True)
"""


def launch_victim(journal_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    return subprocess.Popen(
        [sys.executable, "-c", VICTIM_SCRIPT, str(journal_dir)],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )


class TestSigkillResume:
    def test_sigkilled_sweep_resumes_to_identical_rows(self, tmp_path):
        journal_dir = tmp_path / "journal"
        uninterrupted = run_sweep(
            [TinyApp()], grid=GRID, jobs=2, seed=0, fault_plan=PLAN
        )
        assert not uninterrupted.failures

        rng = random.Random(0xC0FFEE)
        victim = launch_victim(journal_dir)
        try:
            assert victim.stdout.readline().strip() == "START"
            # Kill at a random moment inside the sweep's hang-stretched
            # execution window (seeded: reproducible, but arbitrary
            # relative to cell boundaries).
            time.sleep(rng.uniform(0.2, 0.8))
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.stdout.close()
        assert victim.returncode == -signal.SIGKILL

        # Whatever the journal holds, the resumed sweep must finish
        # the job and agree with the uninterrupted run exactly.
        replay = read_journal(journal_dir / JOURNAL_FILENAME)
        resumed = run_sweep(
            [TinyApp()], grid=GRID, jobs=2, seed=0, fault_plan=PLAN,
            journal_dir=journal_dir, resume=True,
        )
        assert not resumed.failures
        assert len(resumed.resumed) == len(replay.settled)
        assert resumed.metrics.count("journal_replay") == len(replay.settled)
        ours = resumed.experiment(TinyApp())
        theirs = uninterrupted.experiment(TinyApp())
        assert ours.grid == theirs.grid
        assert ours.baselines == theirs.baselines
        # And the journal is now whole: a second resume is pure replay.
        final = read_journal(journal_dir / JOURNAL_FILENAME)
        assert final.completed
        assert len(final.settled) == len(resumed.outcomes)

    def test_journal_readable_after_kill(self, tmp_path):
        """Even with no resume, the post-kill journal must parse: the
        manifest is intact and damage (if any) is confined to the
        tail."""
        journal_dir = tmp_path / "journal"
        victim = launch_victim(journal_dir)
        try:
            assert victim.stdout.readline().strip() == "START"
            time.sleep(0.25)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.stdout.close()
        replay = read_journal(journal_dir / JOURNAL_FILENAME)
        assert replay.manifest is not None
        assert replay.manifest["cells"] == 8
        assert not replay.completed
