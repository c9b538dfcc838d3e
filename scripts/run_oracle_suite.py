#!/usr/bin/env python3
"""Run the brute-force cross-check suite on random small instances.

Usage: python scripts/run_oracle_suite.py [--count N] [--seed S]
Exits nonzero if any instance fails a check.
"""
import argparse
import sys

from epinet.cli import seed_argument
from epinet.oracle import run_sandwich_suite, suite_summary

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--count", type=int, default=100)
parser.add_argument("--seed", type=seed_argument, default=0)
args = parser.parse_args()

reports = run_sandwich_suite(count=args.count, seed=args.seed)
summary = suite_summary(reports)
worst_gap = min(r.lhs_upper - r.e_lambda_max for r in reports)
print(f"{summary['passed']}/{summary['count']} instances passed")
print(f"smallest sandwich slack lhs - E[lambda_max]: {worst_gap:.6g}")
for k, r in enumerate(reports):
    if not r.passed:
        print(f"FAIL #{k}: {r.to_dict()}")
sys.exit(0 if summary["failures"] == 0 else 2)
