"""Source size per file and in total for the package and its tests.

    python3 tools/size.py

A line counts if it is not blank and, after its leading whitespace, does
not start with ``#``; docstrings count.  Each of ``src/cubicmaps`` and
``tests`` prints one line per ``.py`` file under it, in path order, and
then its total.  Paths are taken relative to this checkout, so the script
runs from any working directory.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/cubicmaps", "tests")


def counted_lines(path: Path) -> int:
    """The lines of a file that are not blank and not ``#`` comments."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    for tree in TREES:
        total = 0
        for path in sorted((ROOT / tree).rglob("*.py")):
            n = counted_lines(path)
            total += n
            print(f"{n:6,d}  {path.relative_to(ROOT)}")
        print(f"{total:6,d}  {tree} total")


if __name__ == "__main__":
    main()
