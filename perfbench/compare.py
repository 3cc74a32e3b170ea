"""Compare two benchmark records written by ``run.py``.

Usage (from the repository root)::

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints each metric of both records with the ratio B / A. Records from
different hosts (different ``host_key``: CPU model, nproc, Python and
numpy versions) are flagged as not comparable, and the exit code is 1;
the calibration loop of each host is printed so the reader can see how
far apart the machines are.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for label, rec in (("A", a), ("B", b)):
        host = rec["host"]
        print(
            f"{label}: {rec['workload']} seed {rec['seed']} trace {rec['trace']} | "
            f"{host['cpu']} x{host['nproc']} py{host['python']} numpy {host['numpy']} | "
            f"code {host['git_sha'] or host['src_sha256'][:12]} | "
            f"calibration {host['calibration_ns_per_op']:.1f} ns/op"
        )
    comparable = a["host"]["host_key"] == b["host"]["host_key"]
    if not comparable:
        print("NOT COMPARABLE: the records come from different hosts")
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        va, vb = entry["value"], other["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"  {name:<28} {va:>14.6g} {vb:>14.6g} {ratio}  {entry['unit']}")
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
