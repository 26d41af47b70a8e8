"""Regenerate pins.json: the allocation digest of every pooled instance of
the workloads that do not certify, at the default seed.

    python3 perfbench/pin.py

Run from the repository root.  Pins change only when a change is meant to
alter solver output; a perf change must leave this file as it is.
"""

import json

from run import HERE, load_library


def main() -> None:
    load_library()
    import workloads

    digests = {
        w.name: [
            workloads.digest(workloads.run_op(case, w.certify)[0])
            for case in w.pool(workloads.DEFAULT_SEED)
        ]
        for w in workloads.WORKLOADS.values()
        if not w.certify
    }
    pins = {"seed": workloads.DEFAULT_SEED, "digests": digests}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
