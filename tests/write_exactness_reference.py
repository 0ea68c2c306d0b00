"""Rewrite tests/reference/exactness.json from a fresh end-to-end run.

Run from the repository root:

    PYTHONPATH=src python tests/write_exactness_reference.py

pytest does not collect this file. Rewrite the reference only for a change
that is meant to move its numbers, and record why, with the old and new
values.
"""

from conftest import train_end_to_end
from test_exactness import REFERENCE, dumps, exactness_record


def main() -> None:
    REFERENCE.write_text(dumps(exactness_record(train_end_to_end())))
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
