"""Write the default seed's output digests to ``reference.json``.

    python3 e2e_bench/bless.py

Every run at the default seed compares its outputs with these digests.
Re-bless only in a change that means to alter the program's results,
and say in that change why they moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from checks import REFERENCE_PATH, output_digests
from run import DEFAULT_SEED, ROOT, SRC
from spans import NullRecorder


def main() -> None:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"bless-{os.getpid()}"
    workdir.mkdir(parents=True)
    digests = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, workdir, {})
            workload.setup()
            outcome = workload.chain(NullRecorder())
            digests[name] = output_digests(outcome.outputs)
            workload.verify(outcome)
            if outcome.failed:
                raise SystemExit(f"{name}: {outcome.failed} checks failed; "
                                 "not blessing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(digests, indent=2,
                                         sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
