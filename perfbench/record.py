"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Writes the catalog graphs the CLI ops read to
perfbench/graphs/ and the checked part of each op's output to
perfbench/reference.json.  Each op runs once, in a fresh worker.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from ops import CATALOG_GRAPHS, GRAPHS, REFERENCE, expected_part, workload_ops  # noqa: E402
from run import ROOT, WORKLOADS, Runner  # noqa: E402


def write_graphs():
    sys.path.insert(0, str(ROOT / "src"))
    from graphstate import catalog
    from graphstate.cli import graph_to_dict

    for name, (make, args) in CATALOG_GRAPHS.items():
        doc = graph_to_dict(getattr(catalog, make)(*args))
        (ROOT / GRAPHS / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")


def main():
    (ROOT / GRAPHS).mkdir(exist_ok=True)
    write_graphs()
    runner = Runner(deadline=time.monotonic() + 3600)
    reference = {}
    for workload in WORKLOADS:
        for op in workload_ops(workload, seed=0):
            record = runner.run(op, trace=False)
            if record.get("error") or record["code"] != 0:
                sys.exit(f"{op['id']} failed: {record.get('error') or record['out']}")
            reference[op["id"]] = expected_part(op, record["out"])
            print(f"{op['id']}: {record['op_s']:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
