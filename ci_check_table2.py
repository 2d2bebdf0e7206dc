"""CI gate over the machine-readable Table II record (BENCH_table2.json).

Checks, in increasing tolerance for noise:

* cross-engine deviation <= 2e-4 V — deterministic (same arithmetic every
  run on a given target), so any failure is a real accuracy regression;
* |binding_pole_re| <= 3.5e4 1/s — deterministic; a failure means the stiff
  interface pole (~ -4.1e4 1/s) is back in the explicit lane, i.e. the
  partitioned IMEX march stopped doing its job (DESIGN.md S7);
* every row records `peak_probe_bytes` (the session facade's probe-memory
  high-water mark), and streaming `--sweep` rows keep it under a fixed bound
  independent of the simulated span — a sweep point must never materialise a
  dense trajectory (DESIGN.md S8);
* the deterministic work counts of scenarios 1 and 2 (`PINNED_WORK` below:
  steps, steps by AB order, factorisations, cached solves, stiff exact
  steps, constant and PWL stamp skips, probe-memory high-water) equal the
  recorded values exactly. A kernel change that drifts numerically after the
  0.12 s checkpoint fixture still moves a step or a skip somewhere in the
  5 s / 8 s spans, and the failure names the field that moved. The pins move
  only with a deliberate numerics change, recorded in CHANGES.md together
  with the new values;
* min speed-up >= 4.2 — a wall-clock ratio, noisy on shared runners; the
  workflow retries the whole reproduction a couple of times before treating
  a miss as a regression.

Gate history: the floor was 6.0 for PR 4 (measured 6.3-6.9x). The session PR
recalibrated it to 4.2 (measured ~4.7x/7.3x) because the *baseline* stand-in
became ~40 % faster for honest reasons: the inconsistent tangent-interpolated
companion tables (which cost Newton ~4.3 iterations/step) were replaced by
consistent segment chords, and the baseline now evaluates the exact Shockley
equations (~3.3 iterations/step) instead of borrowing the paper's own lookup
trick. The proposed engine's absolute per-step cost is within a few percent
of PR 4; the ratio moved because the denominator improved. See DESIGN.md S8.
"""

import json
import sys

with open("BENCH_table2.json") as f:
    record = json.load(f)

STREAMING_PEAK_BYTES_BOUND = 65536  # streaming sweep rows must stay O(1)

# Moved with the LTE defaults (rtol, atol) = (3e-6, 3e-13) -> (5e-7, 1.5e-7),
# chosen on `repro accuracy`'s work-precision sweep (ci_check_accuracy.py),
# and the uniform-coefficient slack scaled to the rounding of t; before them
# scenario 1 took 133311 steps and scenario 2 131907.
PINNED_WORK = {
    "scenario1": {
        "steps": 125641,
        "steps_by_order": [14, 31, 3980, 121616],
        "factorisations": 4,
        "cached_solves": 125651,
        "stiff_exact_steps": 125641,
        "constant_stamps_skipped": 125627,
        "pwl_stamps_skipped": 7044,
        "peak_probe_bytes": 702400,
    },
    "scenario2": {
        "steps": 101309,
        "steps_by_order": [118, 338, 3100, 97753],
        "factorisations": 3,
        "cached_solves": 101424,
        "stiff_exact_steps": 101309,
        "constant_stamps_skipped": 101191,
        "pwl_stamps_skipped": 6615,
        "peak_probe_bytes": 1122736,
    },
}

recorded = {scenario["name"] for scenario in record["scenarios"]}
for name in PINNED_WORK:
    if name not in recorded:
        sys.exit(f"{name}: missing from the record")

for scenario in record["scenarios"]:
    if "peak_probe_bytes" not in scenario:
        sys.exit(f"{scenario['name']}: record is missing peak_probe_bytes")
    print(
        f"{scenario['name']}: {scenario['speedup']}x "
        f"(max deviation {scenario['max_deviation_v']} V, "
        f"steps {scenario['steps']}, "
        f"stiff_exact {scenario['stiff_exact_steps']}, "
        f"pwl_skips {scenario['pwl_stamps_skipped']}, "
        f"peak_probe_bytes {scenario['peak_probe_bytes']}, "
        f"binding pole {scenario['binding_pole_re']}"
        f"{scenario['binding_pole_im']:+}i, "
        f"steps_by_order {scenario['steps_by_order']})"
    )
    for field, pinned in PINNED_WORK.get(scenario["name"], {}).items():
        if scenario[field] != pinned:
            sys.exit(
                f"{scenario['name']}: {field} moved from {pinned} to "
                f"{scenario[field]} — a deterministic work count changed; "
                f"update PINNED_WORK only for a deliberate numerics change "
                f"recorded in CHANGES.md"
            )
    if scenario["max_deviation_v"] > 2e-4:
        sys.exit(
            f"{scenario['name']}: cross-engine deviation "
            f"{scenario['max_deviation_v']} V exceeds 2e-4 V"
        )
    if abs(scenario["binding_pole_re"]) > 3.5e4:
        sys.exit(
            f"{scenario['name']}: step limit priced by "
            f"{scenario['binding_pole_re']} 1/s — the stiff interface pole "
            f"is back in the explicit lane"
        )
    if (
        scenario["name"].startswith("sweep")
        and scenario["peak_probe_bytes"] > STREAMING_PEAK_BYTES_BOUND
    ):
        sys.exit(
            f"{scenario['name']}: streaming sweep point retained "
            f"{scenario['peak_probe_bytes']} B of probe memory "
            f"(> {STREAMING_PEAK_BYTES_BOUND} B) — a dense trajectory "
            f"leaked into the streaming path"
        )
if record["min_speedup"] < 4.2:
    sys.exit(
        f"Table II speed-up below the gate: "
        f"min speed-up {record['min_speedup']} < 4.2"
    )
print(f"gate passed: min speed-up {record['min_speedup']}x")
