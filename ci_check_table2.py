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
