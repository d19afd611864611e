"""symgeo benchmark: CLI commands end to end, and each layer on its own.

Usage (from the repository root):

    python3 perfbench/run.py --workload spin_rank --seed 1 --seconds 30 --trace 0

The benchmark drives ``symgeo.cli.run_command`` in-process as a closed
loop: one client, one thread, the next command sent only after the
previous one returns.  The command lines are generated from ``--seed``.
Before every command, outside the timer, the ``elliptic_surface`` cache is
cleared and ``gc.collect()`` runs, so each command starts from the state
of a fresh ``symgeo`` process.

A run sets up (imports ``symgeo`` and generates the inputs), makes one
warm-up pass, then untraced timed passes for ``--seconds``, timing set-up
again between them.  Timings come from the faster half of the passes and
of the set-ups.
``--trace 0`` adds a ``tracemalloc`` pass and prints the end-to-end
metrics; ``--trace 1`` adds one traced pass (before the untraced passes)
and prints the per-layer metrics.  Every command's exit code and output
are checked by ``oracle.py``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

# Set-up timings made after each timed pass.
SETUP_PER_PASS = 2
# Latency samples needed in the faster half of the passes, so that p90
# has at least ten beyond it.
MIN_SAMPLES = 110
# Stop adding passes after this long, whatever the sample count.
MAX_TIMED_S = 120.0


def machine_facts() -> dict:
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "mem_total_mib": round(mem / 2**20)}


def _pop_symgeo() -> dict:
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "symgeo" or name.startswith("symgeo.")}


class Setup:
    """Times importing ``symgeo`` afresh and generating the workload's inputs.

    The first call keeps its import as the code under test.  Later calls
    import a throwaway copy and then put the modules in use back, so they
    can be spread over the run."""

    def __init__(self, workload: str, seed: int, rundir: Path):
        self.generate = workloads.WORKLOADS[workload]
        self.seed = f"{workload}/{seed}"
        self.rundir = rundir
        self.times: list[float] = []

    def once(self):
        in_use = _pop_symgeo()
        gc.collect()
        start = time.perf_counter()
        cli = importlib.import_module("symgeo.cli")
        commands = self.generate(random.Random(self.seed), self.rundir)
        self.times.append(time.perf_counter() - start)
        if in_use:
            _pop_symgeo()
            sys.modules.update(in_use)
        return cli, commands


class Client:
    """Runs commands one at a time and checks each result."""

    def __init__(self, cli):
        self.cli = cli
        self.cache = getattr(sys.modules["symgeo.manifolds"], "elliptic_surface", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cache_hits = 0
        self.cache_calls = 0

    def run(self, cmd: workloads.Command, constructed: dict) -> float:
        if hasattr(self.cache, "cache_clear"):
            self.cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = self.cli.run_command(list(cmd.argv))
            elapsed = time.perf_counter() - start
        if hasattr(self.cache, "cache_info"):
            info = self.cache.cache_info()
            self.cache_hits += info.hits
            self.cache_calls += info.hits + info.misses
        problems = oracle.check(cmd.spec, rc, out.getvalue(), err.getvalue(), constructed)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        return elapsed

    def run_pass(self, commands, tracer=None) -> list[float]:
        constructed: dict = {}
        latencies = []
        for op, cmd in enumerate(commands):
            if tracer is not None:
                tracer.op = op
            latencies.append(self.run(cmd, constructed))
        return latencies


def timed_passes(client, commands, binds, seconds, setup) -> list[list[float]]:
    """Untraced passes for ``seconds``, and until the faster half of them
    holds MIN_SAMPLES latencies.  Set-up is timed again between passes."""
    spans.assert_untraced(binds)
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(client.run_pass(commands))
        for _ in range(SETUP_PER_PASS):
            setup.once()
        elapsed = time.perf_counter() - began
        enough = (len(passes) + 1) // 2 * len(commands) >= MIN_SAMPLES
        if elapsed >= MAX_TIMED_S or (elapsed >= seconds and enough):
            return passes


def faster_half(samples: list, key=None) -> list:
    """The faster half of the samples, rounded up.

    Other tenants of a shared host only ever slow a run down, in bursts
    of several seconds; the slower half absorbs them."""
    return sorted(samples, key=key)[: (len(samples) + 1) // 2]


def peak_alloc_mib(client, commands, binds) -> float:
    spans.assert_untraced(binds)
    tracemalloc.start()
    try:
        client.run_pass(commands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_pass(client, commands, binds, spans_path: Path) -> dict:
    """One pass with every traced function wrapped; returns the per-layer
    metrics (plus ``trace.pass_s``) and writes the spans to ``spans_path``.
    The spans are dropped on return, so later passes do not carry them."""
    tracer = spans.Tracer(binds)
    client.cache_hits = client.cache_calls = 0
    tracer.install()
    try:
        pass_s = sum(client.run_pass(commands, tracer))
    finally:
        tracer.restore()
    tracer.write(spans_path)
    metrics = {}
    for label, (n_calls, self_s) in tracer.per_label().items():
        metrics[f"{label}.calls"] = (n_calls, "count")
        metrics[f"{label}.self_ms"] = (self_s * 1e3, "ms")
    hits, calls = client.cache_hits, client.cache_calls
    ranks = [rank for rank, _ in tracer.returned]
    metrics["manifolds.elliptic_surface.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["lattice.rank_max"] = (max(ranks, default=0), "count")
    metrics["lattice.gram_cells"] = (sum(r * r for r in ranks), "count")
    metrics["witness.count_sum"] = (sum(w for _, w in tracer.returned), "count")
    metrics["trace.pass_s"] = (pass_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symgeo" / "cli.py").is_file():
        print(f"perfbench: no symgeo sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"{args.workload}-{os.getpid()}"
    rundir.mkdir()
    try:
        return measure(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, rundir: Path) -> int:
    facts = machine_facts()
    setup = Setup(args.workload, args.seed, rundir)
    cli, commands = setup.once()
    client = Client(cli)
    binds = spans.bindings()
    client.run_pass(commands)  # warm-up, checked like the rest

    if args.trace:
        layers = traced_pass(client, commands, binds, WORK / f"spans-{args.workload}.tsv")

    passes = timed_passes(client, commands, binds, args.seconds, setup)
    kept = faster_half(passes, key=sum)
    pass_s = statistics.median(sum(p) for p in kept)
    lat_pool = [x for p in kept for x in p]
    cuts = statistics.quantiles(lat_pool, n=10)
    beyond_p90 = sum(1 for x in lat_pool if x > cuts[8])

    if args.trace:
        metrics = layers
        metrics["trace.overhead_s"] = (metrics.pop("trace.pass_s")[0] - pass_s, "s")
    else:
        peak = peak_alloc_mib(client, commands, binds)
        metrics = {
            "setup_s": (statistics.median(faster_half(setup.times)), "s"),
            "pass_s": (pass_s, "s"),
            "op_p50_ms": (cuts[4] * 1e3, "ms"),
            "op_p90_ms": (cuts[8] * 1e3, "ms"),
            "peak_alloc_mib": (peak, "MiB"),
            "ok_ratio": ((client.attempted - client.failed) / client.attempted, "ratio"),
        }

    for problem in client.problems[:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={facts['python']} nproc={facts['nproc']} mem_total_mib={facts['mem_total_mib']}")
    print(f"perfbench: closed loop, 1 client; {len(commands)} commands/pass, "
          f"{len(passes)} timed passes, faster {len(kept)} kept: {len(lat_pool)} latency "
          f"samples ({beyond_p90} beyond p90); set-up timed {len(setup.times)}x")
    print(f"perfbench: fail_ratio {client.failed}/{client.attempted} = "
          f"{client.failed / client.attempted:.4f}")
    if args.trace:
        print("perfbench: lattice.gram_cells is computed as the sum of rank^2 over the "
              "descriptors returned to the CLI, not measured")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "commands_per_pass": len(commands),
              "pass_times_s": [sum(p) for p in passes], "latency_samples": len(lat_pool),
              **result}
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
