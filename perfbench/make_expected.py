"""Regenerate ``expected_table3.json``, the outputs ``table3-tune`` checks.

Usage: ``python3 perfbench/make_expected.py``

Run it only when a change is meant to alter tuned configurations or the
emitted CUDA, and review the diff of the JSON file it rewrites.
"""

from __future__ import annotations

import json

from harness import Tracer, prepare_environment


def main() -> None:
    prepare_environment()
    from table3_tune import CHECKED_FIELDS, EXPECTED, all_items, item_key, tune_item

    tracer = Tracer()
    expected = {}
    for item in all_items():
        outcome = tune_item(item, tracer)
        expected[item_key(item)] = {name: outcome[name] for name in CHECKED_FIELDS}
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} items to {EXPECTED}")


if __name__ == "__main__":
    main()
