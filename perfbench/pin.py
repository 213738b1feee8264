"""Write reference.json: the outputs every benchmark pass is checked against.

    python3 perfbench/pin.py        # from the root of a checkout

Run it only on a commit whose outputs are trusted: the pins are what makes
a faster but wrong build fail instead of reporting a number.  It records,
per audit claim, the row count, a digest of the sorted report lines, a
short hash per line and the claim verdict; per solve-big query, the status,
the cop number and (for certificate queries) the winning placement at
seed 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as w

EXPECTED_VERDICTS = {"pass": 13, "violation-documented": 2}


def main():
    hyperopic = w.import_hyperopic(Path.cwd())
    import hyperopic.audits

    audits = hyperopic.audits
    claims = {}
    for claim in w.AUDIT_SOLVE + w.AUDIT_VERIFY:
        reports = audits.run_claim(claim)
        lines = [r.to_json() for r in reports]
        bad = [r.to_json() for r in reports if r.verdict in ("undecided", "violation")]
        if bad:
            raise SystemExit(f"refusing to pin {claim}: {bad[0]}")
        claims[claim] = {
            "rows": len(lines),
            "verdict": audits.claim_verdict(reports),
            "digest": w.digest(lines),
            "row_hashes": " ".join(sorted(map(w.row_hash, lines))),
        }
    verdicts = {}
    for c in claims.values():
        verdicts[c["verdict"]] = verdicts.get(c["verdict"], 0) + 1
    if verdicts != EXPECTED_VERDICTS:
        raise SystemExit(f"unexpected claim verdicts {verdicts}")

    queries = w.solve_big_queries(hyperopic, 0)
    solve_big = {}
    for name, (_, res) in w.run_solve_big(hyperopic, queries).items():
        if isinstance(res, Exception):
            raise SystemExit(f"{name} raised {res!r}")
        if len(res) == 1:
            solve_big[name] = {"status": "cop_win", "cop_number": res[0]}
            continue
        sol, cert = res
        pin = {"status": sol.status, "cop_number": sol.num_cops}
        if cert is not None:
            pin["placement"] = list(sol.placement)
        solve_big[name] = pin

    ref = {"claims": claims, "solve_big": solve_big}
    w.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE}: {verdicts}, {json.dumps(solve_big)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
