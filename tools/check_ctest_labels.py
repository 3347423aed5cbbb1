#!/usr/bin/env python3
"""Checks that every registered ctest carries a tier label.

An unlabelled test falls out of every `ctest -L` tier. Campaign tests
(suites Campaign*, smoke tests cli_campaign*) must also carry `campaign`,
the multi-site battery (suites Adapter*/Compare*) `compare`, and the
whole-binary smokes (suites E2e*, tests e2e_*) `e2e`.

Usage: check_ctest_labels.py [--ctest CTEST] BUILD_DIR  (exit 1 on failure)
"""
import argparse
import json
import subprocess
import sys

TIERS = [(("Campaign", "cli_campaign"), "campaign"),
         (("Adapter", "Compare"), "compare"),
         (("E2e", "e2e_"), "e2e")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir")
    parser.add_argument("--ctest", default="ctest")
    args = parser.parse_args()
    listing = subprocess.run([args.ctest, "--show-only=json-v1"],
                             cwd=args.build_dir, check=True,
                             capture_output=True, text=True).stdout
    tests = json.loads(listing)["tests"]
    unlabelled, untiered = [], []
    counts = {label: 0 for _, label in TIERS}
    for test in tests:
        name = test["name"]
        labels = next((p.get("value") or [] for p in test.get("properties", [])
                       if p.get("name") == "LABELS"), [])
        if not labels:
            unlabelled.append(name)
        for prefixes, label in TIERS:
            if name.startswith(prefixes):
                counts[label] += 1
                if label not in labels:
                    untiered.append(name)
    if unlabelled:
        print("tests without a ctest label:", *unlabelled, sep="\n  ")
        return 1
    if untiered:
        print("tests missing their tier label:", *untiered, sep="\n  ")
        return 1
    for prefixes, label in TIERS:
        if counts[label] == 0:
            print(f"no {'/'.join(p + '*' for p in prefixes)} tests discovered")
            return 1
    tiers = ", ".join(f"{counts[label]} in the {label} tier"
                      for _, label in TIERS)
    print(f"{len(tests)} tests, all labelled ({tiers})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
