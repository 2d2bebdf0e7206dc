"""CI gate over the accuracy record (BENCH_accuracy.json, `repro accuracy`).

Every number it reads is deterministic (same arithmetic every run on a given
target), so the record is made and checked once, with no retries:

* the reference is good enough to judge the engines by: on scenarios 1 and 2
  its own error bound (the largest Richardson correction) is at most a tenth
  of the proposed engine's error at the default tolerances;
* the defaults earn their place: on scenarios 1 and 2 the default pair's
  store-voltage error against the reference is no larger than that of the
  previous pair, (rtol, atol) = (3e-6, 3e-13), and it takes fewer steps;
* the held-out configurations, which took no part in choosing the defaults,
  stay within 1.25x of the previous pair's error. Their reference bound is
  printed beside the errors.

A run's error is its largest distance from the reference over the 400
matched samples; the RMS of those distances is printed beside it, not gated
(DESIGN.md S7.5 gives both for every configuration).
"""

import json
import sys

PREVIOUS = (3e-6, 3e-13)
TABLE2_SCENARIOS = ("scenario1", "scenario2")
HELD_OUT_ERROR_RATIO = 1.25
BOUND_SHARE = 0.1

with open("BENCH_accuracy.json") as f:
    record = json.load(f)

defaults = (record["defaults"]["rtol"], record["defaults"]["atol"])


def setting(config, pair):
    for point in config["proposed"]:
        if (point["rtol"], point["atol"]) == pair:
            return point
    sys.exit(f"{config['name']}: no proposed-engine point at (rtol, atol) = {pair}")


names = {config["name"] for config in record["configs"]}
for name in TABLE2_SCENARIOS:
    if name not in names:
        sys.exit(f"{name}: missing from the record")

# The record clamps a NaN to 0.0, and no run matches the reference exactly,
# so a zero here is a broken measurement, not a perfect one.
for config in record["configs"]:
    for point in config["baseline"] + config["proposed"]:
        if not point["error_v"] > 0.0 or not config["reference_bound_v"] > 0.0:
            sys.exit(f"{config['name']}: a zero or missing error in the record")

for config in record["configs"]:
    new, old = setting(config, defaults), setting(config, PREVIOUS)
    bound = config["reference_bound_v"]
    print(
        f"{config['name']} ({config['axes'] or 'table2 span'}): reference bound "
        f"{bound:.2e} V, observed order {config['observed_order']}; "
        f"defaults {new['error_v']:.3e} V (rms {new['rms_error_v']:.2e}) in "
        f"{new['steps']} steps, previous {old['error_v']:.3e} V "
        f"(rms {old['rms_error_v']:.2e}) in {old['steps']} steps"
    )
    if config["name"] in TABLE2_SCENARIOS:
        if bound > BOUND_SHARE * new["error_v"]:
            sys.exit(
                f"{config['name']}: reference bound {bound:.2e} V exceeds "
                f"{BOUND_SHARE} x the proposed engine's error {new['error_v']:.2e} V"
            )
        if new["error_v"] > old["error_v"]:
            sys.exit(
                f"{config['name']}: the defaults err by {new['error_v']:.3e} V, "
                f"more than the previous pair's {old['error_v']:.3e} V"
            )
        if new["steps"] >= old["steps"]:
            sys.exit(
                f"{config['name']}: the defaults take {new['steps']} steps, "
                f"no fewer than the previous pair's {old['steps']}"
            )
    elif new["error_v"] > HELD_OUT_ERROR_RATIO * old["error_v"]:
        sys.exit(
            f"{config['name']}: the defaults err by {new['error_v']:.3e} V, more "
            f"than {HELD_OUT_ERROR_RATIO} x the previous pair's {old['error_v']:.3e} V"
        )
print(f"accuracy gate passed at the defaults (rtol, atol) = {defaults}")
