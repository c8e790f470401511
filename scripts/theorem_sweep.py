#!/usr/bin/env python3
"""Sweep every ordered pair of non-conditional domains for counterexamples.

Thin wrapper over ``spdom verify-theorem --family nonconditional-pairs``: every
strategy-proof rule on such a product must attain exactly two outcomes or have
a dictator.  At the default desk scale (3 alternatives, 2 agents) that is 361
instances and 2213 rules, with zero violations expected.

The sweep enumerates one instance per symmetry orbit (agents permuted,
alternatives relabeled) and counts its rules once per member: 39 orbits for
361 instances at the default scale, 241 for 6,859 at ``--agents 3`` and 1,096
for 47,961 at ``--m 4``.  On a 2-core host with Python 3.11, ``--agents 3
--audit-sample 200`` runs in about 0.4 s and ``--m 4`` in about 0.9 s.

Usage:
    python3 scripts/theorem_sweep.py [--m M] [--agents N] [--audit-sample K]
                                     [--seed S]

Exit code is the CLI's: 0 verified, 2 size guard, 3 a counterexample was found.
"""

from __future__ import annotations

import argparse
import sys

from spdom.cli import run_command


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=3, help="number of alternatives")
    parser.add_argument("--agents", type=int, default=2, help="number of agents")
    parser.add_argument(
        "--audit-sample",
        type=int,
        default=0,
        help="additionally deep-audit this many sampled strategy-proof rules",
    )
    parser.add_argument("--seed", type=int, default=None, help="audit sampling seed")
    args = parser.parse_args()

    argv = [
        "verify-theorem",
        "--family",
        "nonconditional-pairs",
        "--m",
        str(args.m),
        "--agents",
        str(args.agents),
        "--audit-sample",
        str(args.audit_sample),
    ]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
