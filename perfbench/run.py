"""sdmkit's benchmark: the train, predict and evaluate commands, end to end and per layer.

    python3 perfbench/run.py --workload train|predict|evaluate [--seed 7]
        [--seconds 30] [--trace 0|1]

Run it from the root of an sdmkit checkout; it imports sdmkit from ./src and
works in ./.bench_work. Inputs are generated from --seed. Set-up is timed in
fresh interpreters, the command is repeated for about --seconds in one more,
and every output is checked against a reference. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer metrics
for --trace 1. A traced run spends half its time untraced and half traced,
and reports the difference as the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import os

# At most nproc threads in every process, BLAS included; set before numpy loads.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CHILD_TIMEOUT_S = 150
SETUP_PROBES = {0: 2, 1: 1}  # fresh interpreters timed per phase, besides the workload's own
AUC_GATE = 0.85


def run_child(mode: str, workload: str, work: str, out: str, seconds: float = 0.0,
              min_reps: int = 1, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", workload, "--inputs", os.path.join(work, "inputs.json"),
           "--out", out, "--seconds", repr(seconds), "--min-reps", str(min_reps),
           "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, work: str, seconds: float, trace: int, min_reps: int) -> dict:
    """Set-up probes, then the repeated command, all with tracing on or off."""
    tag = "traced" if trace else "untraced"
    probes = [run_child("setup", workload, work, os.path.join(work, f"{tag}-setup-{i}.json"),
                        trace=trace)
              for i in range(SETUP_PROBES[trace])]
    result = run_child("work", workload, work, os.path.join(work, f"{tag}-work.json"),
                       seconds=seconds, min_reps=min_reps, trace=trace)
    samples = probes + [result]
    result["setup_samples_s"] = [p["setup_s"] for p in samples]
    result["setup_s"] = statistics.median(result["setup_samples_s"])
    result["setup_steps"] = {
        step: statistics.median(p["setup_steps"][step] for p in samples)
        for step in samples[0]["setup_steps"]
    }
    rates = [r["items"] / r["seconds"] for r in result["reps"] if "error" not in r]
    result["rows_per_s"] = statistics.median(rates) if rates else 0.0
    return result


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_train(path: str, inputs: dict) -> tuple[list[str], dict]:
    """The fit's last validation micro AUC clears the gate."""
    rows = _read_csv(path)
    final_auc = float(rows[-1][rows[0].index("micro_auc")])
    problems = [] if final_auc > AUC_GATE else [f"final val micro AUC {final_auc} <= {AUC_GATE}"]
    return problems, {"final_val_micro_auc": final_auc}


def check_predict(path: str, inputs: dict) -> tuple[list[str], dict]:
    """Every row's top-k follows its own scores (score desc, class id asc);
    at the reference rows the scores match the float64 reference within
    PREDICT_SCORE_TOL and the top-k set holds only classes whose reference
    score is within that tolerance of the reference k-th best."""
    import numpy as np

    from inputs import PREDICT_SCORE_TOL

    k = inputs["top_k"]
    with np.load(inputs["reference"]) as ref:
        ref_ids, ref_scores = list(ref["survey_ids"]), ref["scores"]
    rows = _read_csv(path)
    if rows[0] != ["surveyId", "topk", "scores"] or len(rows) != inputs["surveys"] + 1:
        return ["wrong header or row count"], {}
    index = {r[0]: i for i, r in enumerate(rows[1:])}
    if any(sid not in index for sid in ref_ids):
        return ["reference surveys missing"], {}
    problems = []
    topk = np.array([r[1].split() for r in rows[1:]], dtype=np.int64)
    scores = np.array([r[2].split() for r in rows[1:]], dtype=np.float64)
    if topk.shape[1] != k or not np.array_equal(
            topk, np.argsort(-scores, axis=1, kind="stable")[:, :k]):
        problems.append("top-k does not follow the written scores")
    at = np.array([index[sid] for sid in ref_ids])
    err = np.abs(scores[at] - ref_scores).max()
    if not err <= PREDICT_SCORE_TOL:
        problems.append(f"scores differ from the reference by {err:.3g}")
    kth_best = -np.sort(-ref_scores, axis=1)[:, k - 1]
    if (np.take_along_axis(ref_scores, topk[at], axis=1)
            < kth_best[:, None] - PREDICT_SCORE_TOL).any():
        problems.append("a top-k set differs from the reference")
    return problems, {}


def check_evaluate(path: str, inputs: dict) -> tuple[list[str], dict]:
    """All 12 report values within EVAL_TOL of the reference, skip counts equal."""
    from inputs import EVAL_TOL

    with open(inputs["reference"], encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for key, want in ref.items():
        got = report.get(key)
        exact = key.startswith("skipped")
        if got is None or (got != want if exact else not abs(got - want) <= EVAL_TOL):
            problems.append(f"{key} = {got}, reference {want}")
    return problems, {"micro_auc": ref["micro_auc"]}


def check_outputs(workload: str, outputs: list[str], inputs: dict):
    """Check each distinct output once; on train, every fit at the seed must
    also write the same bytes. Returns ([(path, problem)], facts)."""
    groups: dict[bytes, list[str]] = {}
    for path in outputs:
        with open(path, "rb") as fh:
            groups.setdefault(fh.read(), []).append(path)
    problems, facts = [], {}
    for i, paths in enumerate(groups.values()):
        found, group_facts = CHECKS[workload](paths[0], inputs)
        if workload == "train" and i > 0:
            found.append("metrics.csv differs from the first fit at this seed")
        problems += [(path, problem) for path in paths for problem in found]
        facts = facts or group_facts
    return problems, facts


CHECKS = {"train": check_train, "predict": check_predict, "evaluate": check_evaluate}
RATE_NAMES = {  # what rows_per_s counts on each workload
    "train": ("train_samples_per_s", "samples/s"),
    "predict": ("predict_rows_per_s", "rows/s"),
    "evaluate": ("evaluate_rows_per_s", "rows/s"),
}


def machine_record(conv_backend: str) -> dict:
    import ctypes

    import numpy as np

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "conv_backend": conv_backend,
    }
    try:
        import scipy

        record["scipy"] = scipy.__version__
    except ImportError:
        record["scipy"] = None
    try:
        import numba

        record["numba"] = numba.__version__
    except ImportError:
        record["numba"] = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    # ask the OpenBLAS that numpy bundles for its thread count
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                break
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(CHECKS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sdmkit", "__init__.py")):
        print("perfbench: src/sdmkit not found; run from the root of an sdmkit checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    bench_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        made = inputs.MAKERS[args.workload](work, args.seed)
        with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(made, fh)
        # train's byte-identity check needs two fits per run
        min_reps = 1 if args.trace or args.workload != "train" else 2
        phases = [0, 1] if args.trace else [0]
        seconds = args.seconds / len(phases)
        runs = {t: measure(args.workload, work, seconds, t, min_reps) for t in phases}

        reps = [r for t in phases for r in runs[t]["reps"]]
        outputs = [r["output"] for r in reps if "error" not in r]
        problems = [("command", r["error"]) for r in reps if "error" in r]
        found, facts = check_outputs(args.workload, outputs, made)
        problems += found
        failed_outputs = {path for path, _ in problems}
        failed = sum(1 for r in reps if "error" in r or r["output"] in failed_outputs)

        base = runs[0]
        end_to_end = {"rows_per_s": base["rows_per_s"], "setup_s": base["setup_s"],
                      "peak_rss_mb": base["peak_rss_mb"]}
        values = dict(end_to_end)
        if args.trace:
            traced = runs[1]
            values = dict(traced["layers"])
            for step in ("cli.import", "pipeline.load_config", "pipeline.load_data",
                         "pipeline.resolve_split", "pipeline.build_model"):
                values[f"{step}_s"] = traced["setup_steps"].get(step, 0.0)
            values["engine.final_val_micro_auc"] = facts.get("final_val_micro_auc", 0.0)
            traced_e2e = {"rows_per_s": traced["rows_per_s"], "setup_s": traced["setup_s"],
                          "peak_rss_mb": traced["peak_rss_mb"]}
            for name, untraced_value in end_to_end.items():
                values[f"trace.overhead.{name}"] = traced_e2e[name] - untraced_value
        declared = spec["per_layer" if args.trace else "end_to_end"]
        undeclared = set(values) - {m["name"] for m in declared}
        if undeclared:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

        record = machine_record(runs[0]["conv_backend"])
        summary = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": record, "problems": problems, "facts": facts,
            "phases": {t: {k: v for k, v in runs[t].items() if k != "layers"} for t in phases},
            "metrics": metrics,
        }
        os.makedirs(os.path.join(bench_dir, "results"), exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(bench_dir, "results", stem + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        if args.trace:
            os.makedirs(os.path.join(bench_dir, "traces"), exist_ok=True)
            os.replace(os.path.join(work, "traced-work.spans.jsonl"),
                       os.path.join(bench_dir, "traces", stem + ".spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for where, problem in problems:
        print(f"check failed: {where}: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(record, sort_keys=True))
    name, unit = RATE_NAMES[args.workload]
    print(f"{args.workload}: {name} = {end_to_end['rows_per_s']:.6g} {unit} "
          f"(median of {len(runs[0]['reps'])} runs of the command)")
    for fact, value in facts.items():
        print(f"{args.workload}: {fact} = {value!r}")
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
