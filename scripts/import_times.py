#!/usr/bin/env python3
"""Print the median cold import time of each command's module set, per
checkout.

    python3 scripts/import_times.py PARENT_DIR CHANGE_DIR --runs 15

Each sample is one fresh interpreter, run in the checkout's root with its
`src` on PYTHONPATH, that times the imports of one module set with
`time.perf_counter` and prints the milliseconds.  The sets are those the
commands load: `cli` for enumerate and tableau, `cli`+`incidence`,
`cli`+`semantics` for closure and classify, `cli`+`polynomials` for skein
and catalan, and `verify`.  Each round takes every set once on every
checkout, and the checkouts alternate which goes first.  The interpreter
inherits this environment: with PYTHONDONTWRITEBYTECODE set, every sample
compiles the package's sources, as every command run then does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

MODULE_SETS = {
    "cli": "iterforge.cli",
    "cli+incidence": "iterforge.cli, iterforge.incidence",
    "cli+semantics": "iterforge.cli, iterforge.semantics",
    "cli+polynomials": "iterforge.cli, iterforge.polynomials",
    "verify": "iterforge.cli, iterforge.verify",
}

PROBE = "import time; start = time.perf_counter(); import {}; print((time.perf_counter() - start) * 1000)"


def import_ms(checkout: Path, modules: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-c", PROBE.format(modules)]
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+")
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per set and checkout")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkouts]

    samples = {(path, name): [] for path in checkouts for name in MODULE_SETS}
    for round_ in range(args.runs):
        order = checkouts if round_ % 2 == 0 else checkouts[::-1]
        for path in order:
            for name, modules in MODULE_SETS.items():
                samples[path, name].append(import_ms(path, modules))

    print(f"median of {args.runs} fresh interpreters, ms; Python {sys.version.split()[0]}")
    print("set".ljust(16) + "".join(path.name.rjust(12) for path in checkouts))
    for name in MODULE_SETS:
        print(name.ljust(16) + "".join(f"{median(samples[path, name]):12.1f}" for path in checkouts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
