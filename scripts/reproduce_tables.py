#!/usr/bin/env python3
"""Run every verification suite end to end and print a summary.

The props suite contains one deliberately failing check (the order-12
nilpotent-domination sweep hits an incomparable pair); everything else is
expected to pass.
"""

import argparse
import sys

from oseq.verify import SUITE_NAMES, run_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suites", nargs="*", default=list(SUITE_NAMES))
    args = parser.parse_args()

    grand_total = grand_failed = 0
    for name in args.suites:
        checks = run_suite(name)
        failed = [c for c in checks if not c.ok]
        grand_total += len(checks)
        grand_failed += len(failed)
        print(f"== {name}: {len(checks) - len(failed)}/{len(checks)} passed")
        for check in failed:
            print(f"   FAIL {check.name}  [{check.detail}]")
    print(f"total: {grand_total - grand_failed}/{grand_total} checks passed")
    return 1 if grand_failed else 0


if __name__ == "__main__":
    sys.exit(main())
