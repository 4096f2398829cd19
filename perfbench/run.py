"""captionkit benchmark: generate seeded inputs, time passes, check outputs, print metrics.

Run from the root of a captionkit checkout:

    python3 perfbench/run.py --workload rsicd-analyze --seed 1 --seconds 10 --trace 0

Each pass runs in a fresh interpreter (``measure.py``) that reads the
generated inputs and writes every output; passes repeat while another one
fits in ``--seconds``, at least two. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics. Times are medians over passes,
each corrected for host-speed changes (``speed.py``). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts the
workload's steps over all passes and ``failed`` those that did not finish
with an expected exit code; items a workload loses on purpose show in
``delivered_share``. Inputs and outputs live under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import speed  # noqa: E402

try:
    import check  # noqa: E402  (imports captionkit)
except ImportError:  # not a checkout: preflight() says so and exits
    check = None

RUN_DEADLINE_S = 170.0
HASH_SEEDS = 4_294_967_295  # PYTHONHASHSEED takes 0 to this value
SETUP_LAUNCHES = 7
# Timed in a fresh interpreter: import the CLI and build its parser, then
# probe the host speed (after the import, so the probe's own imports do not
# pre-load modules captionkit needs).
SETUP_CODE = """
import time
start = time.perf_counter()
import captionkit.cli
captionkit.cli.build_parser()
took = time.perf_counter() - start
import json, speed
probes = []
for i in range(9):
    began = time.perf_counter()
    speed.probe(i * 7919)
    probes.append(time.perf_counter() - began)
print(json.dumps({"import_s": took, "probes": probes}))
"""

class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def _env(root: Path, hash_seed: int = 0) -> dict:
    """Environment of every process the benchmark starts: captionkit from
    ``src``, the given string-hash seed, and bytecode caching on, as for an
    installed package, so ``setup_s`` does not include compiling."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def metric_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def preflight(root: Path) -> None:
    for needed in ("src/captionkit/__init__.py", "src/captionkit/cli.py", "tests/oracles.py"):
        if not (root / needed).is_file():
            raise SetupError(f"{needed} not found under {root}; run from a captionkit checkout")
    # Also fills the bytecode cache before setup_s is measured.
    probe = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(root), cwd=root,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise SetupError(f"cannot import captionkit.cli: {probe.stderr.strip()}")


def measure_setup(root: Path) -> list[float]:
    """Import-and-parser time of fresh interpreters, corrected for host speed."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(root), cwd=root,
                              check=True, capture_output=True, text=True, timeout=60)
        report = json.loads(proc.stdout)
        times.append(report["import_s"] * speed.REFERENCE_PROBE_S / statistics.median(report["probes"]))
    return times


def run_pass(root: Path, workload: str, seed: int, inputs: Path, out: Path, trace: bool,
             result: Path, deadline: float, hash_seed: int) -> dict:
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload, "--inputs", str(inputs),
           "--out", str(out), "--seed", str(seed), "--trace", str(int(trace)), "--result", str(result)]
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=_env(root, hash_seed), cwd=root, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass still running after {timeout:.0f} s; stopped"}
    if proc.returncode != 0:
        return {"crashed": proc.stderr.strip()[-2000:]}
    return json.loads(result.read_text("utf-8"))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_passes(root: Path, args, work: Path, inputs: Path, deadline: float) -> tuple[list, list]:
    """Run passes until another would overrun ``--seconds``.

    Returns ``[(traced, result)]`` and the output digests of each pass that
    finished.

    In a traced run, passes alternate untraced/traced and end on a traced one.
    The first pass writes to ``out-0``, which the checks read; later passes
    reuse ``out-k`` and only their digests are kept. The first pass runs with
    another string-hash seed than the rest, so output that depends on set or
    dict order shows as digests that differ between passes.
    """
    passes: list[tuple[bool, dict]] = []
    digests: list[dict] = []
    measuring_since = time.monotonic()
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        out = work / ("out-0" if k == 0 else "out-k")
        hash_seed = 1 + args.seed % HASH_SEEDS if k == 0 else 0
        result = run_pass(root, args.workload, args.seed, inputs, out, traced,
                          work / f"pass-{k}.json", deadline, hash_seed)
        passes.append((traced, result))
        if "crashed" in result:
            break
        digests.append(check.digests(out))
        elapsed = time.monotonic() - measuring_since
        # At least two passes, so that the two hash seeds are compared.
        if k >= 1 and elapsed + result["raw_wall_s"] > args.seconds and (not args.trace or traced):
            break
        if time.monotonic() + result["raw_wall_s"] > deadline - 40:
            break
    shutil.rmtree(work / "out-k", ignore_errors=True)
    return passes, digests


def check_outputs(args, inputs: Path, out: Path, manifest: dict, passes: list, digests: list,
                  oracles) -> tuple[list[str], dict]:
    problems = [f"pass crashed: {r['crashed']}" for _, r in passes if "crashed" in r]
    if problems:
        return problems, {}
    if any(d != digests[0] for d in digests[1:]):
        problems.append("outputs differ between passes of one run")
    first = passes[0][1]
    try:
        if args.workload == "rsicd-analyze":
            found, facts = check.check_analyze(inputs, out, manifest, first["exit_codes"], oracles)
        elif args.workload == "noisy-correct":
            found, facts = check.check_noisy(inputs, out, manifest, first["exit_codes"])
        else:
            found, facts = check.check_backtranslate(inputs, out, manifest, first["exit_codes"],
                                                     first["translate"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"check could not read the outputs: {exc!r}"], {}
    repeated = {
        "translator counts": [tuple(r["translate"][k] for k in ("calls", "faults", "permanent_faults"))
                              for _, r in passes if "translate" in r],
        "tokens.calls": [r["layers"]["tokens.calls"] for _, r in passes if "layers" in r],
    }
    problems += [f"{what} differ between passes" for what, values in repeated.items() if len(set(values)) > 1]
    return problems + found, facts


def end_to_end(passes: list, setup_times: list[float], share: float, input_captions: int) -> dict:
    untraced = [r for _, r in passes if "crashed" not in r]
    wall = _median([r["wall_s"] for r in untraced])
    return {
        "wall_s": wall,
        "captions_per_s": input_captions / wall if wall else 0.0,
        "setup_s": _median(setup_times),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "delivered_share": share,
    }


def per_layer(passes: list, facts: dict, failed_share: float, names) -> dict:
    """Per-layer metrics; a layer the workload does not run reads 0."""
    untraced = [r for t, r in passes if not t and "crashed" not in r]
    traced = [r for t, r in passes if t and "crashed" not in r]
    metrics = {name: 0.0 for name in names}
    for name in traced[0]["layers"] if traced else ():
        metrics[name] = _median([r["layers"][name] for r in traced])
    for step in untraced[0]["step_s"] if untraced else ():
        metrics[f"{step}_s"] = _median([r["step_s"][step] for r in untraced])
    metrics["raw_wall_s"] = _median([r["raw_wall_s"] for r in untraced])
    if traced and "translate" in traced[0]:
        for key in ("calls", "faults"):
            metrics[f"translate.{key}"] = traced[0]["translate"][key]
        for key in ("wait_s", "wait_share", "inflight_mean", "call_p50_ms", "call_p99_ms"):
            metrics[f"translate.{key}"] = _median([r["translate"][key] for r in traced])
    metrics.update({name: value for name, value in facts.items() if name in metrics})
    metrics["failed_share"] = failed_share
    metrics["tracing.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                     - _median([r["wall_s"] for r in untraced]))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="captionkit benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    root = ROOT
    try:
        preflight(root)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    oracles = _load_oracles(root)

    work = root / ".perfbench-work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    manifest = gen.generate(args.workload, args.seed, inputs)
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    setup_times = [] if args.trace else measure_setup(root)
    passes, digests = run_passes(root, args, work, inputs, deadline)
    problems, facts = check_outputs(args, inputs, work / "out-0", manifest, passes, digests, oracles)

    submitted = facts.get("items_submitted", 1)
    delivered = facts.get("items_delivered", 0)
    end_to_end_units, per_layer_units = metric_units(root)
    if args.trace:
        units = per_layer_units
        metrics = per_layer(passes, facts, (submitted - delivered) / submitted, units)
    else:
        units = end_to_end_units
        metrics = end_to_end(passes, setup_times, delivered / submitted, manifest["captions"])
    steps_per_pass = max(len(r.get("exit_codes", {})) for _, r in passes) or 1
    failed = sum(steps_per_pass if "crashed" in r else len(check.unexpected_exits(r["exit_codes"]))
                 for _, r in passes)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": [t for t, _ in passes],
        "pass_wall_s": [r.get("wall_s") for _, r in passes],
        "pass_raw_wall_s": [r.get("raw_wall_s") for _, r in passes],
        "setup_s": setup_times,
        "output_sha256": digests[0] if digests else {},
        "problems": problems,
        "run_s": time.monotonic() - started,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for name in ("inputs", "out-0"):
        shutil.rmtree(work / name, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    combined = hashlib.sha256(json.dumps(summary["output_sha256"], sort_keys=True).encode()).hexdigest()
    print(f"outputs_sha256={combined} files={len(summary['output_sha256'])}")
    print(f"passes={len(passes)} wall_s={[round(w or 0, 3) for w in summary['pass_wall_s']]} "
          f"raw={[round(w or 0, 3) for w in summary['pass_raw_wall_s']]} run_s={summary['run_s']:.1f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": steps_per_pass * len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
