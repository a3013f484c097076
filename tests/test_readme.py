"""The README's library example runs as documented."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["psi"].factor is not None and namespace["rho"].factor is not None
    assert 0.0 <= namespace["p"] <= 1.0
    # the pure state and its dense matrix condition alike
    assert namespace["p_psi"] == pytest.approx(namespace["p"], abs=1e-12)
    rows = (tmp_path / "decay.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2 + len(namespace["traj"])
