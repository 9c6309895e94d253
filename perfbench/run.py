"""aecolor benchmark: one workload, one seed, one process, one thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sparse_auto --seed 1 --seconds 25 --trace 0

The program is imported from ``./src``.  The run builds its corpus from the
seed, times every ``aecolor`` call in a closed loop for ``--seconds`` (at
least one full pass over the corpus plus one repeated instance), re-checks
every answer with the independent oracle, and asserts that the counts of
repeated instances agree exactly.  A reference loop runs between any two
calls, and each call's time is reported rescaled by the mean time of the
loops just before and just after it, which removes most of the drift of a
shared machine's speed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
instance untraced and then traced, reports the per-layer split, and fails
its coverage self-check if a traced function or call site is not reached.
The last line of stdout is the JSON result.  ``--workload all`` runs the
four workloads one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from corpus import max_degree, relabel, write_edge_list
from oracle import check_coloring
from tracer import Tracer, summarize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11
REF_ITERATIONS = 20_000
REF_SECONDS = 0.004  # a little above the reference loop's fastest time on a 2-core x86 VM
REF_TIMES: list[float] = []  # every reference loop time of this run


def reference_loop() -> None:
    """Run a fixed loop of integer, list and dict work, the operations the
    program's inner loops are made of, and append its time to REF_TIMES.
    The machine's speed switches between a fast and a slow state about 1.7
    times slower, for stretches of seconds, and drifts by 20-30% over
    minutes (other tenants share its cores); the loop's time follows both
    closely."""
    start = time.perf_counter()
    seen: dict[int, int] = {}
    acc = []
    for i in range(REF_ITERATIONS):
        seen[i & 511] = seen.get((i * 7) & 511, 0) + i
        if i & 15 == 0:
            acc.append(i)
    REF_TIMES.append(time.perf_counter() - start)


@dataclass(frozen=True)
class Timing:
    """The wall time of one call, and the index in REF_TIMES of the
    reference loop run just before it; the next loop runs just after it."""

    seconds: float
    ref: int


def timed(fn):
    """Run the reference loop, then ``fn()``: (its value, or the exception it
    raised, and its Timing).  A crash of the program is a measured
    outcome."""
    reference_loop()
    ref = len(REF_TIMES) - 1
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # the program's crash is a measured outcome
        value = exc
    return value, Timing(time.perf_counter() - start, ref)


def at_ref_speed(t: Timing) -> float:
    """A call's time rescaled to the machine speed at which the reference
    loop takes REF_SECONDS, by the mean time of the loops around the call."""
    around = (REF_TIMES[t.ref] + REF_TIMES[t.ref + 1]) / 2
    return t.seconds * REF_SECONDS / around


@dataclass
class Outcome:
    """One program call: whether it ended with a validated answer, its wall
    time, the counts the tool reported, and colours used / Delta."""

    label: str
    solved: bool
    timing: Timing
    counts: dict
    ratio: float | None = None


def import_program(root: str):
    """Import aecolor from <root>/src, and only from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "aecolor", "cli.py")):
        raise SystemExit(f"error: no aecolor sources under {src}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, src)
    import aecolor
    import aecolor.cli
    import aecolor.graph
    import aecolor.structure
    if not os.path.abspath(aecolor.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported aecolor from {aecolor.__file__}, not {src}")
    return aecolor


def setup_sample(root: str) -> Timing:
    """Time for a fresh interpreter to import aecolor.cli, which every CLI
    call pays.  No timeout: with one, ``subprocess`` polls the child in
    sleeps of up to 50 ms, which would quantize the measurement."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc, timing = timed(lambda: subprocess.run(
        [sys.executable, "-c", "import aecolor.cli"], cwd=root, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False))
    if isinstance(proc, Exception) or proc.returncode != 0:
        raise SystemExit(f"error: a fresh interpreter cannot import aecolor.cli: {proc}")
    return timing


def call_cli(aecolor, argv: list[str]):
    """Run one CLI call in this process with stdout captured: (exit code,
    JSON payload, Timing, failure text or "").  A crash is a failed
    instance, not a benchmark error."""
    buf = io.StringIO()

    def call():
        with contextlib.redirect_stdout(buf):
            return aecolor.cli.main(argv)

    rc, timing = timed(call)
    if isinstance(rc, Exception):
        return None, None, timing, f"{type(rc).__name__}: {str(rc)[:120]}"
    try:
        payload = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return rc, None, timing, "stdout is not one JSON document"
    if "error" in payload:
        return rc, payload, timing, f"error payload: {payload['error']}"
    return rc, payload, timing, ""


class Runner:
    """Executes batches of instances and checks every answer."""

    def __init__(self, aecolor, workload, seed: int, workdir: str):
        self.ae = aecolor
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []
        self.crashes: dict[str, str] = {}

    def wrong(self, where: str, what: str) -> None:
        msg = f"{self.workload.name} seed {self.seed} {where}: {what}"
        if msg not in self.errors:
            self.errors.append(msg)

    def failed(self, where: str, label: str, timing: Timing, why: str) -> Outcome:
        self.crashes.setdefault(where, why)
        return Outcome(label, False, timing, {"failed": why.split(":")[0]})

    def write(self, name: str, n: int, edges) -> str:
        path = os.path.join(self.workdir, name)
        write_edge_list(path, n, edges)
        return path

    # -- commands --------------------------------------------------------------

    def color(self, where: str, inst, path: str) -> Outcome:
        rc, out, sec, err = call_cli(self.ae, ["color", path, *inst.args])
        if err:
            return self.failed(where, inst.label, sec, err)
        delta = max_degree(inst.n, inst.edges)
        k, outcome = out["k"], out["outcome"]
        if "k" in inst.expect:
            if k != inst.expect["k"]:
                self.wrong(where, f"palette {k}, asked for {inst.expect['k']}")
        else:
            want = {"mad<3": delta + 1, "mad<4": delta + 2, "no-guarantee": delta + 2}
            if want.get(out["guarantee"]) != k:
                self.wrong(where, f"palette {k} does not match {out['guarantee']}")
            if inst.expect.get("guarantee", out["guarantee"]) != out["guarantee"]:
                self.wrong(where, f"guarantee {out['guarantee']}, "
                                  f"expected {inst.expect['guarantee']}")
        solved = outcome in ("success", "fallback-success")
        if out["coloring"] is None:
            self.wrong(where, "no colouring in the report")
            return Outcome(inst.label, False, sec, {"outcome": outcome})
        problem, used = check_coloring(inst.n, inst.edges, out["coloring"], k, total=solved)
        if problem:
            self.wrong(where, problem)
        elif used != out["colors_used"]:
            self.wrong(where, f"reports {out['colors_used']} colours, uses {used}")
        if (rc == 0) != solved:
            self.wrong(where, f"exit code {rc} for outcome {outcome}")
        counts = {"outcome": outcome, "ticks": out["moves_spent"],
                  **{f"moves.{m}": c for m, c in out["move_counts"].items()}}
        return Outcome(inst.label, solved and not problem, sec, counts,
                       used / delta if solved and not problem else None)

    def chi_a(self, where: str, label: str, n: int, edges, path: str,
              expected: int) -> Outcome:
        rc, out, sec, err = call_cli(self.ae, ["chi-a", path])
        if err:
            return self.failed(where, label, sec, err)
        chi = out["chi_a"]
        if chi is None:
            return self.failed(where, label, sec, f"unknown: decided up to {out['decided_up_to']}")
        problem, used = check_coloring(n, edges, out["coloring"] or [], chi, total=True)
        if chi != expected:
            self.wrong(where, f"chi_a {chi}, expected {expected}")
        elif problem:
            self.wrong(where, problem)
        elif used != chi:
            self.wrong(where, f"chi_a {chi} but the colouring uses {used} colours")
        if rc != 0:
            self.wrong(where, f"exit code {rc} with chi_a {chi}")
        ok = chi == expected and not problem and used == chi
        return Outcome(label, ok, sec, {"chi_a": chi, "nodes": out["nodes"]},
                       used / max_degree(n, edges) if ok else None)

    def critical(self, where: str, inst, rng: random.Random) -> list[Outcome]:
        rc, out, sec, err = call_cli(self.ae, ["critical-sweep", *inst.args])
        if err:
            return [self.failed(where, inst.label, sec, err)]
        found = [(r["n"], len(r["edges"]), r["k"]) for r in out["critical"]]
        statuses = {r["status"] for r in out["critical"]}
        if "unknown" in statuses:
            return [self.failed(where, inst.label, sec, "unknown criticality verdict")]
        ok = sorted(found) == sorted(inst.expect["critical"]) and statuses == {"critical"}
        if not ok:
            self.wrong(where, f"critical graphs {found} with {statuses}")
        outcomes = [Outcome(inst.label, ok, sec, {"critical": tuple(sorted(found))})]
        for rec in out["critical"]:
            n, m, k = rec["n"], len(rec["edges"]), rec["k"]
            if m > inst.expect["checked_max_m"]:
                continue
            label = f"n{n}m{m}k{k}"
            n, edges = relabel(n, [tuple(e) for e in rec["edges"]], rng)
            path = self.write(f"{where.replace(' ', '_')}-{label}.txt", n, edges)
            outcomes.append(self.lemmas(f"{where} {label}", label, path, k))
            outcomes.append(self.fact2(f"{where} {label}", label, n, edges, k,
                                       inst.expect["fact2_colorings"].get((n, m, k))))
            outcomes.append(self.chi_a(f"{where} {label}", label, n, edges, path, k + 1))
        return outcomes

    def lemmas(self, where: str, label: str, path: str, k: int) -> Outcome:
        rc, out, sec, err = call_cli(self.ae, ["lemmas", path, "--k", str(k)])
        if err:
            return self.failed(where, label, sec, err)
        failing = [p["lemma"] for p in out["predicates"] if p["applicable"] and not p["holds"]]
        if failing or rc != 0:
            self.wrong(where, f"lemma predicates fail on a critical graph: {failing}")
        return Outcome(label, not failing, sec, {"lemmas_failing": tuple(failing)})

    def fact2(self, where: str, label: str, n: int, edges, k: int,
              expected: int | None) -> Outcome:
        g = self.ae.graph.build_graph(n, edges)
        result, sec = timed(lambda: self.ae.structure.fact2_sweep(g, k))
        if isinstance(result, Exception):
            return self.failed(where, label, sec, f"{type(result).__name__}: {str(result)[:120]}")
        holds, checked = result
        if not holds:
            self.wrong(where, "Fact 2 fails on a critical graph")
        if expected is not None and checked != expected:
            self.wrong(where, f"{checked} colourings checked, expected {expected}")
        return Outcome(label, holds, sec, {"fact2_holds": holds, "fact2_colorings": checked})

    # -- batches ---------------------------------------------------------------

    def run_batch(self, index: int, batch: list, paths: list[str]) -> list[Outcome]:
        outcomes: list[Outcome] = []
        for inst, path in zip(batch, paths):
            where = f"batch {index} {inst.label}"
            if inst.command == "color":
                outcomes.append(self.color(where, inst, path))
            elif inst.command == "chi-a":
                outcomes.append(self.chi_a(where, inst.label, inst.n, inst.edges, path,
                                           inst.expect["chi_a"]))
            else:
                rng = random.Random(f"{self.seed}/{index}/relabel")
                outcomes.extend(self.critical(where, inst, rng))
        return outcomes


def build_corpus(workload, seed: int, runner: Runner):
    """The workload's instances from the seed, each with its edge-list file,
    as batches of one instance: the loop can stop, or take a set-up sample,
    between any two instances."""
    corpus = []
    for b in range(workload.rounds):
        for inst in workload.build(random.Random(f"{workload.name}/{seed}/{b}"),
                                   workload.params):
            path = runner.write(f"{len(corpus)}-{inst.label}.txt", inst.n, inst.edges) \
                if inst.edges else ""
            corpus.append(([inst], [path]))
    return corpus


def signature(outcomes: list[Outcome]) -> tuple:
    return tuple((o.label, o.solved, tuple(sorted(o.counts.items()))) for o in outcomes)


def raw_seconds(t: Timing) -> float:
    return t.seconds


def pass_times(times: dict[tuple[int, int], list[Timing]], scale) -> dict[str, float]:
    """Time of one pass over the corpus, from the repeats of each program
    call, each repeat's time given by ``scale``: the sum over calls of each
    call's fastest repeat, first quartile, median and third quartile.  The
    work of a call is deterministic (the run checks its counts), so its
    repeats differ only by what the machine did meanwhile; summing per-call
    statistics keeps a slow stretch of the run from spoiling more than the
    calls it overlapped."""
    stats = {"min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0}
    for timings in times.values():
        t = [scale(x) for x in timings]
        q1, med, q3 = statistics.quantiles(t, n=4, method="inclusive") if len(t) > 1 \
            else (t[0],) * 3
        for key, value in zip(stats, (min(t), q1, med, q3)):
            stats[key] += value
    return stats


def traced_counts(summary: dict, tally) -> tuple:
    count = summary["count"]
    return (tuple(sorted(count.items())), tuple(sorted(tally.items())))


def layer_metrics(summaries: list[dict], outcomes: list[Outcome],
                  overhead: float, missed: int) -> dict:
    """Per-layer split over the first traced pass: times in seconds and
    counts, both totals over the pass."""
    count, inclusive, self_t, layer, parents, tally = (Counter() for _ in range(6))
    top = 0.0
    for s in summaries:
        count.update(s["count"])
        inclusive.update(s["inclusive"])
        self_t.update(s["self"])
        layer.update(s["layer_self"])
        parents.update(s["parent_name"])
        tally.update(s["tally"])
        top += s["top"]
    reported: Counter[str] = Counter()
    for o in outcomes:
        reported.update({k: v for k, v in o.counts.items()
                         if k == "ticks" or k.startswith("moves.") or k == "fact2_colorings"})
    ticks = reported["ticks"]
    committed = sum(v for k, v in reported.items() if k.startswith("moves."))
    search = self_t["solver.decide"] + self_t["solver.chi_a"] + self_t["solver.critical"]
    m = {
        "density.mad_s": (inclusive["density.mad"], "s"),
        "density.flow_s": (inclusive["density.flow"], "s"),
        "density.flow_calls": (count["density.flow"], "count"),
        "solver.order_s": (inclusive["solver.order"], "s"),
        "solver.search_s": (search, "s"),
        "solver.nodes": (tally["solver.nodes"], "count"),
        "solver.nodes_per_s": (tally["solver.nodes"] / search if search else 0.0, "1/s"),
        "solver.enum_s": (self_t["solver.enum"], "s"),
        "colorer.cascade_s": (self_t["colorer.color"], "s"),
        "colorer.ticks": (ticks, "count"),
        "colorer.commit_ratio": (committed / ticks if ticks else 0.0, "ratio"),
        "colorer.fallback_calls": (parents[("colorer.color", "solver.decide")], "count"),
        "coloring.validate_s": (layer["coloring"], "s"),
        "coloring.validate_calls": (count["coloring.validate"], "count"),
        "structure.fact2_colorings": (reported["fact2_colorings"], "count"),
        "structure.fact2_verify_s": (inclusive["structure.fact2_verify"], "s"),
        "graph.delete_edge_calls": (count["graph.delete_edge"], "count"),
        "graph.load_s": (inclusive["graph.load"], "s"),
        "structure.sweep_s": (self_t["structure.sweep"], "s"),
        "structure.lemma_s": (inclusive["structure.lemma"], "s"),
        "cli.self_s": (self_t["cli.main"], "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.wall_s": (top, "s"),
        "trace.coverage_missed": (missed, "count"),
    }
    for kind in ("assign", "swap", "reassign", "backtrack"):
        m[f"colorer.moves.{kind}"] = (reported[f"moves.{kind}"], "count")
    for name in ("graph", "density", "solver", "colorer", "structure"):
        m[f"{name}.self_s"] = (layer[name], "s")
    return m


@dataclass
class Measurement:
    # (batch, call index) -> Timing of each repeat of that program call
    plain: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    traced: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    first: dict[int, list[Outcome]] = field(default_factory=dict)
    summaries: list[dict] = field(default_factory=list)  # first traced pass
    spans: list[tuple] = field(default_factory=list)     # first traced pass
    setup: list[Timing] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    executions: int = 0
    elapsed: float = 0.0


def record(times: dict, b: int, outcomes: list[Outcome]) -> None:
    for i, o in enumerate(outcomes):
        times.setdefault((b, i), []).append(o.timing)


def run_traced(runner: Runner, tracer: Tracer, b: int, batch, paths):
    """One traced execution of a batch: its outcomes and span summary.
    Raises RuntimeError if the spans do not nest or do not cover the time
    the benchmark measured around each call."""
    tracer.reset()
    tracer.install()
    try:
        outcomes = runner.run_batch(b, batch, paths)
    finally:
        tracer.uninstall()
    wall = sum(o.timing.seconds for o in outcomes)
    summary = summarize(tracer.spans)
    summary["tally"] = tracer.tally
    if tracer.broken:
        raise RuntimeError(f"tracer: {tracer.broken}")
    if abs(summary["top"] - wall) > 0.05 * wall + 0.005:
        raise RuntimeError(f"tracer: spans cover {summary['top']:.4f} s "
                           f"of a {wall:.4f} s batch")
    return outcomes, summary


def measure(runner: Runner, corpus: list, seconds: float,
            tracer: Tracer | None, root: str) -> Measurement:
    """Closed loop over the corpus for ``seconds``, and at least one full
    pass plus one repeated batch.  With a tracer, every batch runs untraced
    and then traced; without one, ``SETUP_SAMPLES`` set-up samples are
    spread evenly over the run, between batches.  Every repeat must
    reproduce the first execution's counts exactly."""
    m = Measurement()
    first_traced: dict[int, tuple] = {}
    start = time.perf_counter()
    while m.executions < len(corpus) + 1 or time.perf_counter() - start < seconds:
        if tracer is None and len(m.setup) < SETUP_SAMPLES and \
                len(m.setup) * seconds < SETUP_SAMPLES * (time.perf_counter() - start):
            m.setup.append(setup_sample(root))
        b = m.executions % len(corpus)
        batch, paths = corpus[b]
        runs = [runner.run_batch(b, batch, paths)]
        record(m.plain, b, runs[0])
        if tracer is not None:
            traced, summary = run_traced(runner, tracer, b, batch, paths)
            runs.append(traced)
            record(m.traced, b, traced)
            key = traced_counts(summary, tracer.tally)
            if b not in first_traced:
                first_traced[b] = key
                m.summaries.append(summary)
                m.spans.extend((b, *s) for s in tracer.spans)
            elif first_traced[b] != key:
                runner.wrong(f"batch {b}", "traced counts differ between repeats")
        for run in runs:
            m.attempted += len(run)
            m.failed += sum(not o.solved for o in run)
            if b not in m.first:
                m.first[b] = run
            elif signature(m.first[b]) != signature(run):
                runner.wrong(f"batch {b}", "counts differ between repeats of the "
                                           f"same input: {signature(m.first[b])} "
                                           f"vs {signature(run)}")
        m.executions += 1
    m.elapsed = time.perf_counter() - start
    while tracer is None and len(m.setup) < SETUP_SAMPLES:
        m.setup.append(setup_sample(root))
    reference_loop()  # the loop after the last call
    return m


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own; fails if any
    run fails or reports a wrong answer."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    aecolor = import_program(root)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]

    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"run-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(aecolor, workload, args.seed, workdir)
        corpus = build_corpus(workload, args.seed, runner)
        m = measure(runner, corpus, args.seconds, tracer, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_outcomes = [o for b in range(len(corpus)) for o in m.first[b]]
    for where, why in sorted(runner.crashes.items()):
        print(f"failed instance: {workload.name} seed {args.seed} {where}: {why}",
              file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {m.executions} batch executions in "
          f"{m.elapsed:.1f} s, {len(pass_outcomes)} instances per pass, "
          f"{m.attempted} attempted, {m.failed} failed")

    if tracer is not None:
        missed = [s for s in workload.spans
                  if not any(x["count"][s] for x in m.summaries)]
        missed += [s for s in workload.sites if not tracer.hits[s]]
        # a renamed or removed target would read as a zero time, that is as
        # a gain, so any coverage gap makes the traced run incorrect
        for s in missed:
            runner.wrong("coverage", f"{s} was not reached")
        for s in tracer.absent:
            runner.wrong("coverage", f"trace target {s} is not in the program")
        overhead = pass_times(m.traced, raw_seconds)["min"] - \
            pass_times(m.plain, raw_seconds)["min"]
        metrics = layer_metrics(m.summaries, pass_outcomes, overhead,
                                len(missed) + len(tracer.absent))
        with gzip.open(os.path.join(outdir, f"spans-{workload.name}-{args.seed}.jsonl.gz"),
                       "wt", encoding="utf-8") as f:
            for row in m.spans:
                f.write(json.dumps(row) + "\n")
        print("patched sites: " + ", ".join(f"{s}={tracer.hits[s]}" for s in tracer.sites),
              file=sys.stderr)
    else:
        ratios = [o.ratio for o in pass_outcomes if o.ratio is not None]
        raw = pass_times(m.plain, raw_seconds)
        wall = pass_times(m.plain, at_ref_speed)
        repeats = [len(t) for t in m.plain.values()]
        setup = [t.seconds for t in m.setup]
        print(f"pass of {len(repeats)} calls, {min(repeats)}-{max(repeats)} repeats "
              f"each.  As measured: quartiles {raw['q1']:.4f} / {raw['median']:.4f} / "
              f"{raw['q3']:.4f} s, fastest {raw['min']:.4f} s.  At the reference "
              f"speed: {wall['q1']:.4f} / {wall['median']:.4f} / {wall['q3']:.4f} s.  "
              f"Reference loop: {min(REF_TIMES) * 1e3:.3f} ms fastest, "
              f"{statistics.median(REF_TIMES) * 1e3:.3f} ms median of {len(REF_TIMES)}.  "
              f"setup_s from {len(m.setup)} samples, as measured {min(setup):.4f}-"
              f"{max(setup):.4f} s, median {statistics.median(setup):.4f} s")
        metrics = {
            "wall_s": (wall["median"], "s"),
            "wall_p75_s": (wall["q3"], "s"),
            "solved_frac": (sum(o.solved for o in pass_outcomes) / len(pass_outcomes), "ratio"),
            "colors_per_delta": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
            "setup_s": (statistics.median(at_ref_speed(t) for t in m.setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in runner.errors:
        print(f"WRONG: {msg}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
