"""One fresh interpreter of the benchmark: a set-up probe or a measured workload.

    python3 perfbench/child.py --mode setup|work --workload NAME --inputs FILE
        --out FILE [--seconds S] [--min-reps N] [--trace 0|1]

Set-up is timed from before ``import sdmkit.cli`` to the point where the
workload's command could start, following the steps the ``sdmkit`` CLI takes.
In ``work`` mode the command then runs repeatedly for about ``--seconds``;
with ``--trace 1`` every call into the layers is recorded as a span.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


class CommandFailed(Exception):
    pass


class Setup:
    """The CLI's steps up to the command, each timed."""

    def __init__(self, workload: str, inputs: dict, tracer=None):
        self.steps: dict[str, float] = {}
        self.workload = workload
        t = time.perf_counter()
        import sdmkit.cli  # noqa: F401

        self.steps["cli.import"] = time.perf_counter() - t
        if tracer is not None:
            import spans

            spans.install(tracer)
        if workload == "evaluate":  # `sdmkit evaluate` reads no config
            return
        from sdmkit.config import load_config
        from sdmkit.pipeline import build_model, load_data, resolve_split

        self.build_model = build_model
        self.cfg = self._step("pipeline.load_config", load_config, inputs["config"])
        self.data = self._step("pipeline.load_data", load_data, self.cfg)
        if workload == "train":
            split = self._step("pipeline.resolve_split", resolve_split, self.cfg,
                               self.data.table)
            self.train = self.data.source_for(split.partition("train"))
            self.val = self.data.source_for(split.partition("val"))
        else:
            self.source = self.data.source_for(labels_mode="predict")
        self.model = self._step("pipeline.build_model", build_model, self.cfg,
                                self.data.cube_shapes())

    def _step(self, name, fn, *args):
        t = time.perf_counter()
        result = fn(*args)
        self.steps[name] = time.perf_counter() - t
        return result


def run_command(setup: Setup, inputs: dict, prefix: str, rep: int, tracer):
    """Run the workload's command once, writing under the path prefix;
    returns (items done, output path)."""
    from sdmkit import cli, engine

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if setup.workload == "train":
        model = setup.model
        if rep > 0:  # every fit starts from the seeded initial weights
            model = setup.build_model(setup.cfg, setup.data.cube_shapes())
        if tracer is not None:
            import spans

            spans.instrument_model(tracer, model)
        with span("engine.fit"):
            run_dir = engine.fit(setup.cfg, model, setup.train, setup.val,
                                 out_root=f"{prefix}-runs")
        return setup.cfg.trainer.epochs * len(setup.train), os.path.join(run_dir, "metrics.csv")
    if setup.workload == "predict":
        if tracer is not None and rep == 0:
            import spans

            spans.instrument_model(tracer, setup.model)
        out = f"{prefix}-predictions-{rep}.csv"
        with span("engine.predict"):
            engine.predict(setup.cfg, setup.model, inputs["weights"], setup.source,
                           out_path=out)
        return len(setup.source), out
    out_dir = f"{prefix}-report-{rep}"
    os.makedirs(out_dir)
    argv = ["evaluate", "--predictions", inputs["predictions"], "--labels", inputs["labels"],
            "--k", str(inputs["k"]), "--out", out_dir]
    with span("cli.evaluate"):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"sdmkit evaluate exited with {code}")
    return inputs["rows"], os.path.join(out_dir, "report.json")


def kernel_cases() -> dict:
    """The encoder-sized conv cases of benchmarks/bench_kernels.py: median
    time per call, and flops and bytes per call computed from the shapes."""
    import numpy as np
    from sdmkit import kernels

    import spans

    cases = [  # (label, n, c, h, w, filters, k, stride)
        ("encoder-small", 64, 4, 32, 32, 8, 3, 2),
        ("encoder-wide", 64, 8, 32, 32, 16, 3, 2),
        ("deep-layer", 64, 16, 16, 16, 16, 3, 2),
    ]
    # the kernels as the program selected them, without the tracing wrappers
    forward = getattr(kernels.conv2d_forward, "__wrapped__", kernels.conv2d_forward)
    backward = getattr(kernels.conv2d_backward, "__wrapped__", kernels.conv2d_backward)
    rng = np.random.default_rng(0)
    out = {}
    for label, n, c, h, w, f, k, stride in cases:
        x = rng.normal(size=(n, c, h, w))
        wgt = rng.normal(size=(f, c, k, k))
        b = rng.normal(size=f)
        dout = rng.normal(size=forward(x, wgt, b, stride).shape)
        calls = {
            "forward": lambda: forward(x, wgt, b, stride),
            "backward": lambda: backward(x, wgt, dout, stride),
        }
        for direction, call in calls.items():
            call()
            times = []
            for _ in range(15):
                t = time.perf_counter()
                call()
                times.append(time.perf_counter() - t)
            key = f"kernels.{label}.{direction}"
            out[f"{key}_ms"] = float(np.median(times)) * 1e3
            out[f"{key}_mflop"] = spans.conv_flop(x, wgt, stride, direction) / 1e6
            out[f"{key}_mb"] = spans.conv_bytes(x, wgt, stride, direction) / 1e6
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "work"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    setup = Setup(args.workload, inputs, tracer)
    result = {"setup_s": time.perf_counter() - T_START, "setup_steps": setup.steps}
    from sdmkit import kernels

    result["conv_backend"] = kernels.backend_name()
    if args.mode == "work":
        from sdmkit.errors import SdmkitError

        if tracer is not None:  # the layer numbers cover the commands only
            tracer.spans.clear()
            tracer.counts.clear()
        prefix = os.path.splitext(os.path.abspath(args.out))[0]
        reps = []
        t_begin = time.perf_counter()
        while True:
            t = time.perf_counter()
            try:
                items, output = run_command(setup, inputs, prefix, len(reps), tracer)
                reps.append({"seconds": time.perf_counter() - t, "items": items,
                             "output": output})
            except (SdmkitError, CommandFailed) as exc:
                reps.append({"seconds": time.perf_counter() - t, "error": str(exc)})
            elapsed = time.perf_counter() - t_begin
            if len(reps) >= args.min_reps and elapsed * (1 + 1 / len(reps)) > args.seconds:
                break
        result["reps"] = reps
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            import spans

            tracer.write(prefix + ".spans.jsonl")
            result["layers"] = spans.layer_metrics(tracer, len(reps))
            result["layers"].update(kernel_cases())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
