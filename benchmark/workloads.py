"""The benchmark's three workloads, untraced and traced.

Load model: a closed loop with one caller on one thread; each call is made
only after the previous one returned.

``sparse`` and ``dense`` cycle over a fixed set of generated models.  Each
visit to a model is one trial: ``dagmut convert`` on its graph file (run
in-process through ``dagmut.cli.main``, stdout captured), then its script
applied operator by operator with ``mutate.apply_op``, starting from the
model's initial state.  Only whole cycles run, so every model weighs the
same in the percentiles.  ``verify`` runs ``oracle.run_differential`` in
blocks of seeded trials at the oracle's node limit.

The traced mode alternates untraced and traced passes over one fixed unit
of work (:mod:`spans`), checks that both give identical outputs and that
traced passes repeat their counts exactly, and reports per-layer numbers.
"""
from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import generate
import spans
from dagmut import cli, graph, metrics, mutate, ops, oracle

#: Set-up runs this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A p90 needs ten samples beyond it.
MIN_SAMPLES = 100
#: A run waiting for MIN_SAMPLES stops anyway after this many ``--seconds``.
MAX_SECONDS_FACTOR = 4
VERIFY_BLOCK = 25
VERIFY_TRACE_BLOCKS = 8


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_values(name: str, samples: list[float], scale: float = 1.0) -> dict:
    if len(samples) < 2:  # every call failed; ``failed`` says so
        return {f"{name}.p50": (0.0, "no samples"), f"{name}.p90": (0.0, "no samples")}
    note = f"n={len(samples)}"
    return {f"{name}.p50": (p50(samples) * scale, note),
            f"{name}.p90": (p90(samples) * scale, note)}


def per_second(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_probe(root: Path) -> None:
    """Import ``dagmut`` in a fresh interpreter, as a command-line user does."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    subprocess.run([sys.executable, "-c", "import dagmut"], env=env, cwd=root,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


def set_up(build, root: Path):
    """``build()`` after a fresh-interpreter import, ``SETUP_REPEATS`` times;
    returns the last result and the median time of one set-up."""
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        built = None  # release the previous repetition first
        start = time.perf_counter()
        import_probe(root)
        built = build()
        times.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()  # keep the harness's long-lived inputs out of collections
    return built, p50(times)


# --------------------------------------------------------------------------
# sparse and dense

def convert(path: str) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["convert", path, "--format", "machine"])
    return rc, buf.getvalue(), time.perf_counter() - start


def make_models(workload: str, seed: int) -> list[generate.Model]:
    make = generate.sparse_models if workload == "sparse" else generate.dense_models
    return make(seed)


class ModelSession:
    """Models written to ``workdir`` with their scripts parsed by the program."""

    def __init__(self, models: list[generate.Model], workdir: Path):
        self.models = models
        self.checker = checks.Checker(self.models)
        self.setup_log = checks.OutputLog()
        self.paths, self.scripts = [], []
        for model in self.models:
            path = workdir / f"{model.name}.dg"
            path.write_text(model.dg_text, encoding="utf-8")
            self.paths.append(str(path))
            expected = checks.op_objects(model.ops)
            try:
                script = ops.parse_script(model.script_text)
            except Exception as exc:
                self.setup_log.error(f"{model.name}: parse_script raised {exc!r}")
                script = expected
            if script != expected:
                self.setup_log.error(f"{model.name}: parse_script misread the script")
            self.scripts.append(script)

    def load(self, m: int) -> mutate.ModelState:
        return mutate.model_from_graph(graph.parse_graph(self.models[m].dg_text))

    def warm_up(self) -> "ModelSession":
        self.visit(0, checks.OutputLog())  # the timed calls repeat and check this
        return self

    def visit(self, m: int, log: checks.OutputLog, state=None, counters=None,
              sink=None) -> float:
        """One trial on model ``m``: ``convert`` on its file, then its script
        applied step by step with ``counters``, every output logged.

        The script starts from ``state`` if given; otherwise the graph is
        loaded and the script text parsed here, as a user's run would.  With
        ``sink``, a pair of lists, each convert and operator duration is
        appended to it.  Returns the summed duration of those calls.
        """
        model, total = self.models[m], 0.0
        try:
            rc, text, took = convert(self.paths[m])
        except Exception as exc:
            log.error(f"{model.name}: convert raised {exc!r}")
        else:
            log.convert(m, rc, text)
            total += took
            if sink:
                sink[0].append(took)
        try:
            if state is None:
                state, script = self.load(m), ops.parse_script(model.script_text)
            else:
                script = self.scripts[m]
            for j, op in enumerate(script):
                t0 = time.perf_counter()
                state, _ = mutate.apply_op(state, op, counters)
                took = time.perf_counter() - t0
                total += took
                if sink:
                    sink[1].append(took)
                log.step(m, j, state)
        except Exception as exc:
            log.error(f"{model.name}: script raised {exc!r}")
        return total

    def cycles(self, seconds: float):
        """Timed whole cycles over the models, each from its prebuilt initial
        state, until ``seconds`` have passed and both percentiles have
        MIN_SAMPLES samples."""
        log = checks.OutputLog()
        convert_s, op_s, trial_s = [], [], []
        initial = [self.load(m) for m in range(len(self.models))]
        start = time.perf_counter()
        while True:
            for m in range(len(self.models)):
                trial_s.append(self.visit(m, log, initial[m], sink=(convert_s, op_s)))
            elapsed = time.perf_counter() - start
            enough = min(len(convert_s), len(op_s)) >= MIN_SAMPLES
            if (elapsed >= seconds and enough) or elapsed >= seconds * MAX_SECONDS_FACTOR:
                return log, convert_s, op_s, trial_s

    def one_pass(self, counters) -> checks.OutputLog:
        """Each model once, as a user would run it: ``convert``, then load
        the graph and script and apply the script with ``counters``."""
        log = checks.OutputLog()
        for m in range(len(self.models)):
            self.visit(m, log, counters=counters)
        return log


def run_models(workload: str, seed: int, seconds: int, root: Path, workdir: Path) -> dict:
    session, setup_s = set_up(
        lambda: ModelSession(make_models(workload, seed), workdir).warm_up(), root)
    log, convert_s, op_s, trial_s = session.cycles(seconds)
    rss = peak_rss_mb()
    failed, problems = session.checker.failures(log)
    failed += session.setup_log.errors
    return {
        "attempted": log.attempted + len(session.models),
        "failed": failed,
        "problems": session.setup_log.messages + problems,
        "values": {
            "setup_s": (setup_s, f"median of {SETUP_REPEATS}"),
            **latency_values("convert_s", convert_s),
            **latency_values("op_ms", op_s, 1e3),
            "trials_per_s": (per_second(len(trial_s), sum(trial_s)), f"n={len(trial_s)}"),
            "peak_rss_mb": (rss, "ru_maxrss"),
        },
    }


# --------------------------------------------------------------------------
# verify

def verify_block(seed: int, block: int) -> oracle.VerifyReport:
    return oracle.run_differential(trials=VERIFY_BLOCK, base_seed=seed * 100_000 + block,
                                   max_nodes=oracle.MAX_GEN_NODES)


def failed_trials(report: oracle.VerifyReport) -> int:
    return report.trials - report.passed_trials()


@contextlib.contextmanager
def timing_probe(module, attr: str, sink: list):
    """Append the duration of every call of ``module.attr`` to ``sink``."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def run_verify(seed: int, seconds: int, root: Path) -> dict:
    # one warm-up block for every seed: trial cost varies a lot between
    # seeds, and set-up time should not
    _, setup_s = set_up(lambda: verify_block(0, 99_999), root)
    convert_s, op_s, block_s = [], [], []
    trials = failed = 0
    problems = []
    start = time.perf_counter()
    block = 0
    # run_differential converts each trial's model with model_from_graph and
    # applies its script with apply_op; the probes time those calls
    with timing_probe(oracle, "model_from_graph", convert_s), \
            timing_probe(oracle, "apply_op", op_s):
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            report = verify_block(seed, block)
            block_s.append(time.perf_counter() - t0)
            block += 1
            trials += report.trials
            failed += failed_trials(report)
            problems += [f"trial seed {f.seed} step {f.step} [{f.kind}]: {f.detail}"
                         for f in report.failures]
    rss = peak_rss_mb()
    return {
        "attempted": trials,
        "failed": failed,
        "problems": problems,
        "values": {
            "setup_s": (setup_s, f"median of {SETUP_REPEATS}"),
            **latency_values("convert_s", convert_s),
            **latency_values("op_ms", op_s, 1e3),
            "trials_per_s": (per_second(trials, sum(block_s)), f"n={trials}"),
            "peak_rss_mb": (rss, "ru_maxrss"),
        },
    }


class VerifyPasses:
    """A fixed list of trial blocks as the traced unit of work."""

    def __init__(self, seed: int):
        self.seed = seed

    def one_pass(self, counters) -> tuple[oracle.VerifyReport, ...]:
        return tuple(verify_block(self.seed, block) for block in range(VERIFY_TRACE_BLOCKS))


# --------------------------------------------------------------------------
# traced mode

def path_count_mismatch(results) -> int:
    """Operator results whose term count differs from the graph's
    start-to-finish path count, counted independently."""
    return sum(
        n != generate.Tracker(dg.nodes, dg.arcs, dg.starts, dg.finishes).path_count()
        for n, dg in results)


class TracedPass:
    def __init__(self, tracer: spans.Tracer, counters: metrics.OpCounters, seconds: float):
        self.summary = tracer.summary()
        self.counts = dict(tracer.counts)
        self.counters = (counters.symbol_comparisons, counters.term_copies, counters.set_lookups)
        self.mismatch = path_count_mismatch(tracer.results)
        self.seconds = seconds

    def repeatable(self) -> tuple:
        calls = {name: calls for name, (calls, _) in self.summary.items()}
        return calls, self.counts, self.counters, self.mismatch


def traced_passes(work, seconds: int, trace_path: Path):
    """Untraced and traced passes of ``work`` in turn, at least two of each,
    until ``seconds`` have passed.  Returns the passes' outputs, untraced
    times and traced summaries."""
    outputs, untraced_s, traced = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outputs.append(work.one_pass(metrics.OpCounters()))
        untraced_s.append(time.perf_counter() - t0)

        tracer, counters = spans.Tracer(), metrics.OpCounters()
        tracer.install()
        try:
            t0 = time.perf_counter()
            outputs.append(work.one_pass(counters))
            took = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        traced.append(TracedPass(tracer, counters, took))
        if len(traced) == 1:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path)
    return outputs, untraced_s, traced


def layer_values(untraced_s, traced) -> dict:
    """Per-layer metric values: medians over traced passes of self times,
    counts from the first traced pass (the rest must repeat them)."""
    first = traced[0]
    values = {}
    for name, (calls, _) in first.summary.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = p50([t.summary.get(name, (0, 0))[1] for t in traced]) / 1e9
    layer_s = {layer: p50([sum(s for name, (_, s) in t.summary.items()
                               if name.startswith(layer + ".")) for t in traced]) / 1e9
               for layer in spans.LAYERS}
    total = sum(layer_s.values()) or 1.0
    for layer, s in layer_s.items():
        values[f"layer.{layer}.self_s"] = s
        values[f"layer.{layer}.share"] = s / total
    counts = Counter(first.counts)
    values["graph.arcs_scanned"] = counts["graph.arcs_scanned"]
    values["sopf.terms_canonicalised"] = counts["sopf.terms_canonicalised"]
    values["sopf.pt.terms_scanned"] = counts["sopf.pt.terms_scanned"]
    values["sopf.pt.hit_ratio"] = (counts["sopf.pt.terms_matched"]
                                   / max(counts["sopf.pt.terms_scanned"], 1))
    values["sopf.symbol_comparisons"], values["sopf.term_copies"], \
        values["sopf.set_lookups"] = first.counters
    values["mutate.insert_yield"] = (counts["mutate.terms_added"]
                                     / max(counts["mutate.added_bound"], 1))
    values["mutate.path_count_mismatch"] = first.mismatch
    values["trace.overhead_ratio"] = p50([t.seconds for t in traced]) / p50(untraced_s)
    return values


def run_traced(workload: str, seed: int, seconds: int, root: Path, workdir: Path) -> dict:
    if workload == "verify":
        work = VerifyPasses(seed)
    else:
        work = ModelSession(make_models(workload, seed), workdir).warm_up()
    gc.collect()
    gc.freeze()
    outputs, untraced_s, traced = traced_passes(
        work, seconds, root / ".bench-trace" / f"{workload}.spans.tsv")
    problems = []
    if any(out != outputs[0] for out in outputs):
        problems.append("traced and untraced passes gave different outputs")
    if any(t.repeatable() != traced[0].repeatable() for t in traced):
        problems.append("traced passes gave different counts")
    consistent = not problems
    if workload == "verify":
        attempted = sum(r.trials for reports in outputs for r in reports)
        failed = sum(failed_trials(r) for reports in outputs for r in reports)
    else:
        attempted, failed = len(work.models), work.setup_log.errors
        problems += work.setup_log.messages
        for log in outputs:
            bad, why = work.checker.failures(log)
            attempted += log.attempted
            failed += bad
            problems += why
    return {
        "attempted": attempted,
        "failed": failed,
        "consistent": consistent,
        "problems": problems,
        "values": {name: (value, f"{len(traced)} traced passes")
                   for name, value in layer_values(untraced_s, traced).items()},
    }


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path, workdir: Path) -> dict:
    if trace:
        return run_traced(workload, seed, seconds, root, workdir)
    if workload == "verify":
        return run_verify(seed, seconds, root)
    return run_models(workload, seed, seconds, root, workdir)
