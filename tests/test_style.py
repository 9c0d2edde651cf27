"""Source layout rules that no other check enforces."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stepdown"


def test_no_source_line_is_longer_than_100_columns():
    long = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert SRC.is_dir() and not long


def test_no_source_reads_the_process_environment():
    # Every input of a run is then a flag or a config key, which the
    # run's .meta.txt records.
    readers = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "environ" in line or "getenv" in line
    ]
    assert SRC.is_dir() and not readers
