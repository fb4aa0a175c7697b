import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_run_child_kills_and_reaps_its_child_when_interrupted(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_solve

    pids = []

    def interrupted(pid, options):
        pids.append(pid)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "wait4", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bench_solve.run_child(ROOT / "src", ["verify", "--max-n", "12"])
    # reaped: the pid is no longer a child of this process, running or not
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
