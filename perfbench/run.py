"""scdforge benchmark: fresh-process CLI workloads, end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload quotients --seed 0 --seconds 40 --trace 0

Every command runs in its own fresh `python -m scdforge.cli` process, one at a
time: a closed loop with one client, so the cached Greene-Kleitman and pruning
tables start cold, as they do for a user.  A run repeats the workload's pass
of commands for about --seconds seconds (at least twice) and reports medians
over passes.  Times are the CPU time (user + system) of the command processes,
read with wait4 and scaled by the speed of a fixed reference workload
(calibrate.py) run around the commands of every untraced pass, so that most of
a shared host's changing speed cancels out; raw CPU and wall times, the
reference samples and the scale are in the record line.  Every output is
checked: exit code, element count against an independent Burnside count, the
verifier's verdict and, on the default seed, the document's sha256 and length
against goldens.json.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes (see tracing.py) and prints the per-layer metrics.  The last
line of standard output is the result; the line before it is the full record:
seed, arguments, environment and per-command figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from workloads import DEFAULT_SEED, WORKLOADS, Command, commands_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDENS = HERE / "goldens.json"

TIME_LIMIT_S = 165.0  # a run must exit within 180 s
MIN_PASSES = 2
SETUP_SAMPLES = 9
SCHEMA_ID = "scdforge/1"

# Per-layer metrics, summed over the commands of one traced pass.
SELF_TIMES = {
    "gk.gk_scd.self_s": ("gk.gk_scd",),
    "prune.prune_chains.self_s": ("prune.prune_chains",),
    "prune.quotient_scd.self_s": ("prune.quotient_scd",),
    "groups.quotient_poset.self_s": ("groups.quotient_poset",),
    "groups.orbit_rep.self_s": ("groups.orbit_rep",),
    "core.product_scd.self_s": ("core.product_scd",),
    "core.map_elements.self_s": ("core.map_elements",),
    "core.make_decomposition.self_s": ("core.make_decomposition",),
    "reflect.reflection_scd.self_s": ("reflect.reflection_scd",),
    "chainpow.chainpower_scd.self_s": ("chainpow.chainpower_scd",),
    "verify.verify_decomposition.self_s": ("verify.verify_decomposition",),
    "cli.decode.self_s": ("cli.decode",),
    "cli.encode.self_s": ("cli.build_document", "cli.encode"),
}
SPAN_CALLS = ("gk.gk_scd", "groups.orbit_rep")
COUNTERS = {
    "gk.chains": "count",
    "prune.chains_scanned": "count",
    "prune.chains_selected": "count",
    "prune.elements_pruned": "count",
    "groups.orbits": "count",
    "groups.apply_perm.calls": "count",
    "verify.elements": "count",
    "verify.comparabilities": "count",
    "cli.doc_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({f"{span}.calls": "count" for span in SPAN_CALLS})
    units.update(COUNTERS)
    units.update({"prune.selected_ratio": "ratio", "cli.process_s": "s", "trace.overhead_s": "s"})
    return units


END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "elements_per_cpu_s": "1/s"}


@dataclass
class Outcome:
    """One command of one pass."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    elements: int
    doc_bytes: int
    sha256: str
    failures: list[str]
    trace: dict | None = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)


class DeadlineExceeded(RuntimeError):
    """A command was killed because the run reached its time limit."""


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path, deadline: float):
    """Run one process to completion: (wall seconds, CPU seconds, peak RSS in MB,
    exit code).

    The child is reaped with wait4 so that its own CPU time and peak RSS are
    read; it is killed if it is still running at the deadline.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def _document_elements(data: bytes, failures: list[str]) -> int:
    try:
        doc = json.loads(data)
        chains, stats = doc["chains"], doc["stats"]
        elements = stats["element_count"]
        if doc["schema"] != SCHEMA_ID:
            failures.append(f"schema is {doc['schema']!r}")
        if stats["chain_count"] != len(chains):
            failures.append("stats.chain_count differs from the chains")
        if sum(len(chain) for chain in chains) != elements:
            failures.append("stats.element_count differs from the chains")
    except (ValueError, KeyError, TypeError) as e:
        failures.append(f"unreadable document: {type(e).__name__}: {e}")
        return 0
    return elements


def check_output(cmd: Command, code: int, data: bytes, goldens: dict | None) -> tuple[int, list[str]]:
    """Elements the output certifies, and every reason the command failed.

    goldens is None except on the default seed; then the document must match
    its recorded sha256 and length byte for byte.
    """
    failures = [f"exit code {code}"] if code != 0 else []
    if cmd.reads is not None:
        verdict = re.fullmatch(rb"ok: (\d+) elements in \d+ chains\n", data)
        if verdict is None:
            failures.append(f"verdict is not ok: {data[:80]!r}")
            return 0, failures
        elements = int(verdict[1])
    else:
        elements = _document_elements(data, failures)
        if goldens is not None:
            golden = goldens.get(cmd.name)
            if golden is None:
                failures.append("no golden recorded")
            elif len(data) != golden["bytes"] or hashlib.sha256(data).hexdigest() != golden["sha256"]:
                failures.append("document differs from the golden")
    if elements != cmd.expected_elements:
        failures.append(f"{elements} elements, Burnside count is {cmd.expected_elements}")
    return elements, failures


def reference_cpu_s(deadline: float) -> float:
    """CPU seconds of one fresh process running the reference workload."""
    out = WORK / "reference.out"
    _, cpu, _, code = spawn([sys.executable, str(HERE / "calibrate.py")], out,
                            WORK / "reference.err", deadline)
    if time.monotonic() >= deadline:
        raise DeadlineExceeded("the reference workload did not finish within the run's time limit")
    if code != 0 or out.read_text().strip() != str(calibrate.CHECKSUM):
        raise SystemExit("error: the reference workload failed or gave a wrong checksum")
    return cpu


def run_pass(commands: list[Command], traced: bool, deadline: float, goldens: dict | None) -> Pass:
    """Run each command once, in order, in a fresh process, and check it.

    An untraced pass also runs the reference workload before each command
    and after the last one.
    """
    result = Pass(traced)
    outputs: dict[str, Path] = {}
    for cmd in commands:
        if not traced:
            result.reference_s.append(reference_cpu_s(deadline))
        argv = list(cmd.argv)
        if cmd.reads is not None:
            argv += ["--input", str(outputs[cmd.reads])]
        out = WORK / f"{cmd.name}.out"
        err = WORK / f"{cmd.name}.err"
        trace_path = WORK / f"{cmd.name}.trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            prog = [sys.executable, str(HERE / "tracing.py"), str(trace_path)]
        else:
            prog = [sys.executable, "-m", "scdforge.cli"]
        wall, cpu, rss, code = spawn(prog + argv, out, err, deadline)
        if time.monotonic() >= deadline:
            raise DeadlineExceeded(f"{cmd.name} did not finish within the run's time limit")
        data = out.read_bytes()
        elements, failures = check_output(cmd, code, data, goldens)
        if code != 0:
            failures.append(err.read_bytes()[-300:].decode("utf-8", "replace"))
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_bytes())
            except (OSError, ValueError) as e:
                failures.append(f"no trace: {e}")
        outputs[cmd.name] = out
        result.outcomes.append(Outcome(cmd.name, wall, cpu, rss, code, elements, len(data),
                                       hashlib.sha256(data).hexdigest(), failures, trace))
    if not traced:
        result.reference_s.append(reference_cpu_s(deadline))
    return result


def check_setup(deadline: float) -> None:
    """Import the package once, untimed: compiles the bytecode and confirms
    that scdforge is imported from this checkout's src/."""
    probe = WORK / "setup.out"
    *_, code = spawn([sys.executable, "-c", "import scdforge.cli; print(scdforge.cli.__file__)"],
                       probe, WORK / "setup.err", deadline)
    if code != 0 or Path(probe.read_text().strip()).resolve() != SRC / "scdforge" / "cli.py":
        raise SystemExit(f"error: cannot import scdforge.cli from {SRC}")


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of fresh processes that only import the CLI."""
    return [spawn([sys.executable, "-c", "import scdforge.cli"], WORK / "setup.out",
                  WORK / "setup.err", deadline)[:2] for _ in range(SETUP_SAMPLES)]


def layer_totals(trace: dict) -> tuple[dict[str, dict], dict[str, int]]:
    """Calls, total and self time by span name, and the counters, of one trace."""
    spans: dict[str, dict] = {}

    def walk(nodes):
        for node in nodes:
            acc = spans.setdefault(node["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += node["calls"]
            acc["total_s"] += node["total_s"]
            acc["self_s"] += node["self_s"]
            walk(node["children"])

    walk(trace["spans"])
    return spans, trace["counters"]


def trace_signature(trace: dict) -> dict[str, int]:
    """Call count of every span path and every counter: must repeat exactly."""
    signature = dict(trace["counters"])

    def walk(nodes, prefix):
        for node in nodes:
            path = f"{prefix}/{node['name']}"
            signature[path] = node["calls"]
            walk(node["children"], path)

    walk(trace["spans"], "")
    return signature


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of the traced outcomes, summed over the commands."""
    totals = dict.fromkeys(per_layer_units(), 0)
    for o in outcomes:
        if o.trace is None:
            continue
        spans, counters = layer_totals(o.trace)
        for metric, names in SELF_TIMES.items():
            totals[metric] += sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
        for span in SPAN_CALLS:
            totals[f"{span}.calls"] += spans.get(span, {}).get("calls", 0)
        for counter in COUNTERS:
            totals[counter] += counters.get(counter, 0)
        totals["cli.process_s"] += o.wall_s - spans.get("cli.run", {}).get("total_s", 0.0)
    scanned = totals["prune.chains_scanned"]
    totals["prune.selected_ratio"] = totals["prune.chains_selected"] / scanned if scanned else 0.0
    return totals


def _median_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "src_lines": src_line_count(),
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; return the full record and the result line."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    commands = commands_for(workload, seed)
    goldens = json.loads(GOLDENS.read_text()) if seed == DEFAULT_SEED else None
    check_setup(deadline)
    setup = [] if trace else measure_setup(deadline)

    passes: list[Pass] = []
    durations: list[float] = []
    stopped = None
    end = time.monotonic() + seconds
    needed = 3 if trace else MIN_PASSES  # traced, untraced, traced
    while True:
        traced = trace and len(passes) % 2 == 0
        t0 = time.monotonic()
        try:
            passes.append(run_pass(commands, traced, deadline, goldens))
        except DeadlineExceeded as e:
            stopped = str(e)
            break
        durations.append(time.monotonic() - t0)
        next_end = time.monotonic() + max(durations)
        if next_end > deadline or (len(passes) >= needed and next_end > end):
            break

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    if not plain or (trace and not traced_passes):
        raise SystemExit(f"error: no complete pass to measure: {stopped}")
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.failures) + (stopped is not None)
    attempted = len(outcomes) + (stopped is not None)

    signatures = {}
    trace_consistent = True
    for p in traced_passes:
        for o in p.outcomes:
            if o.trace is not None:
                sig = trace_signature(o.trace)
                if signatures.setdefault(o.name, sig) != sig:
                    trace_consistent = False

    references = [r for p in plain for r in p.reference_s]
    scale = calibrate.NOMINAL_S / statistics.median(references)

    commands_record = {}
    for cmd in commands:
        mine = [o for o in outcomes if o.name == cmd.name]
        walls = [o.wall_s for p in plain for o in p.outcomes if o.name == cmd.name]
        cpus = [o.cpu_s for p in plain for o in p.outcomes if o.name == cmd.name]
        entry = {
            "argv": list(cmd.argv),
            "cpu_s": statistics.median(cpus) if cpus else None,
            "cpu_s_samples": cpus,
            "wall_s": statistics.median(walls) if walls else None,
            "wall_s_samples": walls,
            "peak_rss_mb": max((o.rss_mb for o in mine), default=None),
            "elements": mine[0].elements if mine else None,
            "doc_bytes": mine[0].doc_bytes if mine else None,
            "sha256": mine[0].sha256 if mine else None,
            "failures": sorted({f for o in mine for f in o.failures}),
        }
        traced_mine = [o for p in traced_passes for o in p.outcomes if o.name == cmd.name]
        if traced_mine and cpus:
            layers = _median_dicts([layer_metrics([o]) for o in traced_mine])
            layers["trace.overhead_s"] = statistics.median(o.cpu_s for o in traced_mine) - entry["cpu_s"]
            entry["layers"] = layers
        commands_record[cmd.name] = entry

    if trace:
        metrics = _median_dicts([layer_metrics(p.outcomes) for p in traced_passes])
        metrics["trace.overhead_s"] = (statistics.median(p.cpu_s for p in traced_passes)
                                       - statistics.median(p.cpu_s for p in plain))
        units = per_layer_units()
    else:
        cpu = sum(entry["cpu_s"] for entry in commands_record.values()) * scale
        elements = sum(o.elements for o in plain[0].outcomes)
        metrics = {
            "setup_s": statistics.median(cpu for _, cpu in setup) * scale,
            "cpu_s": cpu,
            "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in plain),
            "elements_per_cpu_s": elements / cpu,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "setup_wall_s_samples": [wall for wall, _ in setup],
        "setup_cpu_s_samples": [cpu for _, cpu in setup],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "reference_s_samples": references,
        "scale": scale,
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "trace_consistent": trace_consistent,
        "stopped": stopped,
        "environment": environment(),
        "commands": commands_record,
    }
    result = {
        "correct": failed == 0 and trace_consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scdforge" / "cli.py").is_file():
        print(f"error: no scdforge sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # One CPU for the benchmark and every process it starts, so that the
    # reference and the commands run on the same (virtual) core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
