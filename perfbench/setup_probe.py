"""Time one fresh interpreter's set-up for a workload.

Set-up is ``import fadecap`` (with its CLI module, whose import cost a
``fadecap sweep`` user also pays) plus building the workload's gain laws
through ``DistributionSpec.build``. Then it times the reference work of
calibrate.py three times, so that the caller can give the set-up time at
the reference speed. Prints one JSON line:
``{"setup_s": <seconds>, "reference_s": [<seconds>, ...]}``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fadecap.cli
    import fadecap.distributions

    for name in workloads.WORKLOAD_LAWS[workload]:
        workloads.build_law(fadecap.cli, fadecap.distributions, name, seed)
    elapsed = time.perf_counter() - start
    if not Path(fadecap.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fadecap imported from {fadecap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate

    reference = [calibrate.reference_time() for _ in range(3)]
    print(json.dumps({"setup_s": elapsed, "reference_s": reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
