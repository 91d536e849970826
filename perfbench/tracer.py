"""Per-layer tracing for the benchmark, done from outside the program.

`Tracer.install()` wraps every public function of each alignlab module and
rebinds the wrapper wherever alignlab code looks the function up (module
globals such as ``alignlab.harness.run_trajectory`` or
``alignlab.theory.g_gap``). Nothing under ``src/`` changes; the patch lives only
in the traced child process.

Spans nest per thread. A worker thread's outermost span is a child of the span
the main thread had open when it started, since the main thread only waits on
the pool meanwhile. Self time is wall time attributed by processor sharing:
each instant goes in equal parts to the spans that are open and have no open
child. Layer self times therefore sum to at most the traced wall, also while
the pool runs jobs in parallel.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("spectrum", "state", "theory", "dynamics", "montecarlo", "harness", "svgplot", "cli")
# functions timed under another layer than their module's
LAYER_OF = {"write_trajectory_csv": "harness.io"}
# live (batch, d)-shaped float64 arrays in one batch of each Monte-Carlo kernel,
# counted by reading the kernel: noise draw, scaled noise, next state, weights
_ONE_STEP_LIVE_ARRAYS = 4


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, name, thread id, start, end, parent index]
        self.counts = Counter()
        self.draws = []  # (seed, n, d) of each Monte-Carlo draw set
        self.main = threading.get_ident()
        self._stacks = {}
        self._lock = threading.Lock()

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"alignlab.{layer}")
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(obj, LAYER_OF.get(name, layer), name)
        for modname, module in list(sys.modules.items()):
            if modname == "alignlab" or modname.startswith("alignlab."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])

    def _wrap(self, fn, layer: str, name: str):
        hook = getattr(self, f"_on_{name}", None)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self.main)
                parent = main[-1] if tid != self.main and main else None
            span = [layer, name, tid, perf_counter(), None, parent]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    hook(bound.arguments, result)
            return result

        return traced

    # counters, taken at the same boundaries as the spans

    def _on_run_trajectory(self, a, _result) -> None:
        self.counts["steps"] += a["T"]
        self.counts["dynamics_normals"] += a["T"] * a["spec"].d

    def _on_one_step_estimates(self, a, _result) -> None:
        n, d = a["n"], a["spec"].d
        self.counts["one_step_samples"] += n * len(a["etas"])
        self.counts["mc_normals"] += n * d
        self.draws.append((a["seed"], n, d))
        self._batch_bytes(_ONE_STEP_LIVE_ARRAYS * d, n)

    def _on_projected_loss_test(self, a, _result) -> None:
        n, d, k = a["n"], a["spec"].d, a["spec"].k
        block = k if a["block"] == "D" else d - k
        self.counts["projected_samples"] += n
        self.counts["mc_normals"] += n * d
        self.counts["projected_used"] += n * block
        self.counts["projected_normals"] += n * d
        self.draws.append((a["seed"], n, d))
        # noise draw and scaled noise are (batch, d); g and g*g are (batch, block)
        self._batch_bytes(2 * d + 2 * block, n)

    def _batch_bytes(self, width: int, n: int) -> None:
        batch = min(n, getattr(sys.modules["alignlab.montecarlo"], "_BATCH", 8192))
        self.counts["peak_batch_bytes"] = max(self.counts["peak_batch_bytes"], 8 * width * batch)

    def self_times(self) -> list[float]:
        """Processor-sharing self time of every span, in span order."""
        events = []
        for i, span in enumerate(self.spans):
            events.append((span[3], 1, i))
            events.append((span[4], 0, i))
        events.sort()  # at equal times, ends (0) before starts (1)
        out = [0.0] * len(self.spans)
        open_children = {}
        prev = None
        for t, starting, i in events:
            if open_children and t > prev:
                leaves = [j for j, c in open_children.items() if c == 0]
                for j in leaves:
                    out[j] += (t - prev) / len(leaves)
            prev = t
            parent = self.spans[i][5]
            step = 1 if starting else -1
            if starting:
                open_children[i] = 0
            else:
                del open_children[i]
            if parent in open_children:
                open_children[parent] += step
        return out

    def layer_metrics(self, wall_s: float, floor_s: float, nominal_normals: int) -> tuple[dict, dict, dict]:
        """Per-layer metrics of one traced iteration, why any is absent
        (reported as 0) on this workload, and the self time of every layer."""
        by_layer, by_fn = defaultdict(float), defaultdict(float)
        calls, fn_calls = Counter(), Counter()
        for span, s in zip(self.spans, self.self_times()):
            by_layer[span[0]] += s
            by_fn[span[1]] += s
            calls[span[0]] += 1
            fn_calls[span[1]] += 1
        per_normal = floor_s / nominal_normals
        jobs = [span[4] - span[3] for span in self.spans if span[1] == "run_trajectory"]
        workers = {span[2] for span in self.spans if span[1] == "run_trajectory"}
        c = self.counts
        mc_s = by_layer["montecarlo"]
        absent = {}

        def ratio(name, num, den, why):
            if den:
                return num / den
            absent[name] = why
            return 0.0

        no_dyn = "no trajectories on this workload"
        no_mc = "no Monte-Carlo draws on this workload"
        no_proj = "no projected-loss tests on this workload"
        metrics = {
            "dynamics.run_trajectory.s": by_fn["run_trajectory"],
            "dynamics.steps": c["steps"],
            "dynamics.us_per_step": ratio("dynamics.us_per_step", 1e6 * by_fn["run_trajectory"], c["steps"], no_dyn),
            "dynamics.x_floor": ratio(
                "dynamics.x_floor", by_fn["run_trajectory"], c["dynamics_normals"] * per_normal, no_dyn
            ),
            "dynamics.job_s.max_over_median": ratio(
                "dynamics.job_s.max_over_median", max(jobs, default=0.0),
                statistics.median(jobs) if jobs else 0.0, no_dyn,
            ),
            "harness.pool.workers": len(workers),
            "harness.io.s": by_layer["harness.io"],
            "svgplot.line_plot.s": by_fn["line_plot"],
            "montecarlo.s": mc_s,
            "montecarlo.one_step_estimates.s": by_fn["one_step_estimates"],
            "montecarlo.one_step_estimates.calls": fn_calls["one_step_estimates"],
            "montecarlo.samples": c["one_step_samples"] + c["projected_samples"],
            "montecarlo.normals": c["mc_normals"],
            "montecarlo.x_floor": ratio("montecarlo.x_floor", mc_s, c["mc_normals"] * per_normal, no_mc),
            "montecarlo.distinct_draw_ratio": ratio(
                "montecarlo.distinct_draw_ratio", len(set(self.draws)), len(self.draws), no_mc
            ),
            "montecarlo.projected_loss_test.s": by_fn["projected_loss_test"],
            "montecarlo.projected_useful_ratio": ratio(
                "montecarlo.projected_useful_ratio", c["projected_used"], c["projected_normals"], no_proj
            ),
            "montecarlo.peak_batch_mb": c["peak_batch_bytes"] / 1e6,
            "theory.s": by_layer["theory"],
            "theory.calls": calls["theory"],
            "theory.share": by_layer["theory"] / wall_s,
            "state.s": by_layer["state"],
            "state.calls": calls["state"],
            "spectrum.s": by_layer["spectrum"],
            "cli.s": by_layer["cli"],
            "harness.other.s": wall_s - sum(s for layer, s in by_layer.items() if layer != "harness"),
            "normals.count": nominal_normals,
            "normals.floor_s": floor_s,
        }
        if not jobs:
            absent["harness.pool.workers"] = "no job pool on this workload"
        if not calls["cli"]:
            absent["cli.s"] = "the workload calls the API, not the CLI"
        return metrics, absent, dict(by_layer)
