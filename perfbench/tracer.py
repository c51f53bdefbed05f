"""Per-layer spans and counters, taken from outside the package.

Tracing wraps every public function of each layer module and rebinds the
wrapper wherever a ``ratiomarker`` module binds the function, so calls made
through ``from .glm import fit_glm`` are seen as well. Nothing in the
package changes. Public functions are listed when tracing is installed, so a
function added to a layer later is traced without editing this file.

A span is (name, start, end, parent span, job id). Spans stay in memory and
are written out when the run ends. A layer's self time is its span time
minus the time of the child spans it called; its total time counts only the
outermost span of that layer, so a layer calling itself is not counted
twice.
"""

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "tabular",
    "composition",
    "simulate",
    "glm",
    "metrics",
    "learn.scoring",
    "learn.biomarker",
    "learn.stepwise",
    "learn.relaxed",
    "learn.evolutionary",
    "latent",
    "benchmark",
)

PACKAGE = "ratiomarker"

# Every counter an observer below may add to, besides L.calls, L.self_s and
# L.total_s of each layer L.
COUNTERS = (
    "cli.jobs",
    "glm.fits",
    "glm.newton_iters",
    "glm.not_converged",
    "glm.fit_errors",
    "learn.scoring.candidates",
    "learn.scoring.candidate_s",
    "learn.scoring.inf_candidates",
    "learn.scoring.nan_folds",
    "metrics.auc_calls",
    "metrics.r2_calls",
    "learn.evolutionary.evaluations",
    "learn.evolutionary.lookups",
    "learn.relaxed.grad_calls",
    "latent.mlp_grad_calls",
    "composition.pairwise_bytes",
    "tabular.read_bytes",
    "tabular.write_bytes",
    "tabular.files_written",
)


def public_functions(module) -> dict:
    """Public functions defined in `module` itself, not imported into it."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _observe_fit_glm(c, args, kwargs, result, exc, seconds, parent):
    c["glm.fits"] += 1
    if exc is not None:
        if isinstance(exc, sys.modules[f"{PACKAGE}.errors"].ValidationError):
            c["glm.fit_errors"] += 1
        return
    c["glm.newton_iters"] += result.n_iter
    c["glm.not_converged"] += not result.converged


def _observe_cv_score(c, args, kwargs, result, exc, seconds, parent):
    if exc is not None:
        return
    c["learn.scoring.candidates"] += 1
    c["learn.scoring.candidate_s"] += seconds
    mean, _, folds = result
    c["learn.scoring.inf_candidates"] += mean == -math.inf
    c["learn.scoring.nan_folds"] += sum(1 for s in folds if math.isnan(s))


def _observe_evolutionary(c, args, kwargs, result, exc, seconds, parent):
    if exc is not None:
        return
    config = args[2] if len(args) > 2 else kwargs.get("config")
    if config is None:
        from ratiomarker.learn.biomarker import LearnerConfig

        config = LearnerConfig()
    c["learn.evolutionary.evaluations"] += result.diagnostics["evaluations"]
    # The search looks fitness up once per chromosome of the initial and of
    # every later generation, plus once for the winner.
    c["learn.evolutionary.lookups"] += config.population * (config.generations + 1) + 1


def _observe_pairwise(c, args, kwargs, result, exc, seconds, parent):
    matrix = args[0] if args else kwargs["matrix"]
    n, g = matrix.values.shape
    c["composition.pairwise_bytes"] += 8 * n * (g * (g - 1) // 2)


def _counter(name):
    def observe(c, args, kwargs, result, exc, seconds, parent):
        c[name] += 1

    return observe


OBSERVERS = {
    "cli.main": _counter("cli.jobs"),
    "glm.fit_glm": _observe_fit_glm,
    "learn.scoring.cv_score_values": _observe_cv_score,
    "metrics.auc_score": _counter("metrics.auc_calls"),
    "metrics.r2_score": _counter("metrics.r2_calls"),
    "learn.evolutionary.evolutionary_slr": _observe_evolutionary,
    "learn.relaxed.relaxed_loss_and_grad": _counter("learn.relaxed.grad_calls"),
    "latent.mlp_loss_and_grad": _counter("latent.mlp_grad_calls"),
    "composition.pairwise_logratios": _observe_pairwise,
}


def _path_arg(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    return path if isinstance(path, (str, os.PathLike)) else None


def _observe_tabular(name):
    """Byte counts of the files a reader reads or a writer writes.

    Only the outermost tabular call counts, so a writer that delegates to
    another writer is not counted twice.
    """
    if name.startswith("read_"):
        def observe(c, args, kwargs, result, exc, seconds, parent):
            path = _path_arg(args, kwargs)
            if exc is None and parent != "tabular" and path is not None:
                c["tabular.read_bytes"] += os.path.getsize(path)

        return observe
    if name.startswith(("write_", "atomic_write")):
        def observe(c, args, kwargs, result, exc, seconds, parent):
            path = _path_arg(args, kwargs)
            if exc is None and parent != "tabular" and path is not None:
                c["tabular.write_bytes"] += os.path.getsize(path)
                c["tabular.files_written"] += 1

        return observe
    return None


class Tracer:
    """Wraps the layers on `install` and restores them on `uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.job = ""
        self._stack: list = []
        self._depth: dict[str, int] = defaultdict(int)
        self._stats: dict[str, float] = defaultdict(float)
        self._rebound: list = []

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                qualname = f"{layer}.{name}"
                observe = OBSERVERS.get(qualname)
                if observe is None and layer == "tabular":
                    observe = _observe_tabular(name)
                originals[id(fn)] = (fn, self._wrap(layer, qualname, fn, observe))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def take(self) -> dict[str, float]:
        """The counters and layer times since the last call, then reset."""
        stats = dict(self._stats)
        self._stats.clear()
        return stats

    def _wrap(self, layer, qualname, fn, observe):
        name_id = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        depth = self._depth
        stats = self._stats
        spans = self.spans
        calls_key = f"{layer}.calls"
        self_key = f"{layer}.self_s"
        total_key = f"{layer}.total_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans)
            spans.append(None)
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            depth[layer] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = perf_counter()
                seconds = end - start
                stack.pop()
                depth[layer] -= 1
                if parent is not None:
                    parent[1] += seconds
                stats[calls_key] += 1
                stats[self_key] += seconds - frame[1]
                if depth[layer] == 0:
                    stats[total_key] += seconds
                spans[span_id] = (
                    name_id,
                    start,
                    end,
                    -1 if parent is None else parent[2],
                    self.job,
                )
                if observe is not None:
                    observe(
                        stats, args, kwargs, result, exc, seconds,
                        None if parent is None else parent[0],
                    )
                del exc

        return traced

    def write_spans(self, path, origin: float):
        """Write every span as TSV, times in seconds from `origin`."""
        with open(path, "w") as out:
            out.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            for span_id, (name_id, start, end, parent, job) in enumerate(self.spans):
                out.write(
                    f"{span_id}\t{parent}\t{job}\t{self.names[name_id]}"
                    f"\t{start - origin:.6f}\t{end - origin:.6f}\n"
                )
