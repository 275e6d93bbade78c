"""Run one dialoprep CLI stage as its own process, the way a user does.

    python bench/stage.py RESULT_JSON [dialoprep argv ...]

With no dialoprep argv the process only imports the CLI (a cold-start probe).
RESULT_JSON receives ``time.monotonic()`` stamps taken after
``import dialoprep.cli`` and after ``cli.main`` returns; the exit code is the
process's.
The monotonic clock is shared by all processes on the machine, so the parent
subtracts its own stamp taken before the spawn to get the cold-start time.
"""

import json
import sys
import time

from dialoprep import cli

imported = time.monotonic()


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    code = cli.main(argv) if argv else 0
    done = time.monotonic()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "done": done}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
