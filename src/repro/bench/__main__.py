"""``python -m repro.bench …`` is ``repro bench …``."""

from __future__ import annotations

import sys

from ..cli import main as cli_main


def main(argv: list[str] | None = None) -> int:
    return cli_main(["bench", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
