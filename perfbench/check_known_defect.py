"""Failure accounting, checked on a config that fracfp cannot run today.

    python3 perfbench/check_known_defect.py

``KNOWN_DEFECT`` (run.py) raises ``ValueError: need at least 10 points in the
fit window, got 9`` from ``decay_fit`` instead of producing a FAIL record
(ROADMAP item 4).  The check runs it through run.py and passes
(exit code 0) when run.py finishes and counts the scenario as failed.
Once the defect becomes a FAIL record, the run still counts as failed.
"""

import sys

from run import KNOWN_DEFECT, run


def main() -> int:
    summary, results = run("known-defect", KNOWN_DEFECT, seed=1, seconds=0, trace=False,
                           reference=None)
    reached = all("scenario_s" in r for r in results)  # failed inside run_scenario
    if summary["attempted"] == summary["failed"] == 1 and not summary["correct"] and reached:
        print(f"ok: known defect counted as failed ({results[0]['problems'][0]})")
        return 0
    print("known defect was not counted as a failed scenario", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
