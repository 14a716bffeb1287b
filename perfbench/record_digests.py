"""Record the artifact digests of every workload at the default seed.

    python3 perfbench/record_digests.py

The benchmark fails a default-seed run whose rankings or report differ from
this record (digests.json), because rankings and reports must stay
byte-identical. Re-record only in a change that alters them on purpose.
"""

import json
import sys
import time

from checks import digests
from run import DEFAULT_SEED, DIGESTS, ORDERS, TIME_LIMIT_S, WORK, WORKLOADS, prepare, worker


def main() -> int:
    record = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        work = WORK / workload.name
        configs, _ = prepare(workload, DEFAULT_SEED, work)
        deadline = time.monotonic() + TIME_LIMIT_S
        result = worker(["run", str(configs["run"])], work / "worker.log", deadline)
        if result is None or result["exit_code"] != 0:
            print(f"{workload.name}: run failed; see {work / 'worker.log'}", file=sys.stderr)
            return 1
        found = digests(work / "out", workload.metrics, ORDERS)
        if None in found.values():
            print(f"{workload.name}: missing artifacts {found}", file=sys.stderr)
            return 1
        record["workloads"][workload.name] = found
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
