"""The six demos run to completion and print exactly their recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

DEMO_GOLDENS = {
    "01_words_and_counts.py": "47f4bc57793ba1ab1106315a538256f5fd562a8ff18b0926e0f486572050cd94",
    "02_tableaux.py": "d1c4c5f766139131eebffce7dc959aa85f5daf6c45b6e298e12724d52bef2083",
    "03_reducibility.py": "8c9302d0d43cdc229b7fe7485a05d03791f197d6d591b6333c0a337f67e7dbd0",
    "04_closures.py": "735ae9e0d576b39ec878ed5a58636bbe83e3e2a30cad8e35005f686a305b1795",
    "05_classification.py": "a9bbc3d52b723566c33d764ef69edbfb768a2d09315cebe73aac5fae775f96f9",
    "06_skein_and_series.py": "1aadecc53b2edbfd9bad189b55f95b5d1b52250699b586dae757987b6727e8b6",
}


def test_every_demo_has_a_golden():
    assert sorted(DEMO_GOLDENS) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_GOLDENS))
def test_demo_output_golden(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, ITERFORGE_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_GOLDENS[name]
