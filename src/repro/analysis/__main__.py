"""``python -m repro.analysis`` — the same command as ``repro check``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["check", *sys.argv[1:]]))
