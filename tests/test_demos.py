"""Every demo script runs to completion and prints exactly its recorded output."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
# each demo's recorded stdout; the demos are deterministic, so any changed byte is a change
GOLDEN = Path(__file__).parent / "data" / "demos"


def test_all_five_demos_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
