"""Run one benchmark workload from the root of a checkout:

    python3 perfbench/run.py --workload table|sweep_n|idx_mlp --seed N --seconds S --trace 0|1

sconf is imported from this checkout's src/ and nowhere else; without it the
run stops with an error before printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "sconf" / "__init__.py").is_file():
        sys.exit(f"error: no sconf package under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import sconf

    if Path(sconf.__file__).resolve().parent != ROOT / "src" / "sconf":
        sys.exit(f"error: sconf was imported from {sconf.__file__}, not from {ROOT / 'src'}")
    from perfbench.harness import main

    sys.exit(main())
