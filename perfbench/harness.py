"""Forked, cold requests against the CLI, timed from fork to exit.

The benchmark process imports `proofbench.cli` once, after set-up, and
never calls into it.  Each request runs in a child forked from that
just-imported state: the child calls `proofbench.cli.main(argv)` and exits,
so no request pays for interpreter start or import, and none inherits a
cache filled by set-up or by an earlier request.  The load is a closed loop
with one request in flight.

Set-up runs in children too, each forked before the program is imported:
the child imports it and its `ti` verb writes the certificates.  This is
repeated SETUPS times and `setup_s` is the median; the last copy of the
inputs, completed with the files the benchmark writes itself, is the one
the requests read.

Times are reported at a reference machine speed.  On a virtual machine
whose cores are shared with other tenants, speed was seen to swing by up to
1.7x within seconds, so raw times of one run depend on when it ran.  A
fixed piece of interpreter work (`calibration_work`) is timed in a forked
child before and after every request and set-up, and each time t is
reported as t * REFERENCE_S / (mean of the two calibration times).  Raw
times are printed next to the scaled ones on standard error.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import oracle
import plan as plans
import sx
import tracing

SETUPS = 5
_CRASH_EXIT = 70  # a child that could not even start the request


@dataclass
class Outcome:
    request: int  # index into the plan's request list
    exit_code: int
    wall_s: float  # fork to exit, as measured
    scaled_s: float  # the same at the reference speed
    cpu_s: float
    maxrss_kb: int
    stdout: str
    crashed: bool  # killed, exit code outside 0-3, or a Python traceback


def _child_exit(code) -> int:
    """The exit status `python -m proofbench` would give for a SystemExit code."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def fork_call(work: str, body, out_path: str, err_path: str):
    """Run body() in a forked child inside `work`; return (exit, wall, usage).

    The child's stdout and stderr go to the two files; an uncaught exception
    prints its traceback and exits 1, as the interpreter would.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = _CRASH_EXIT
        try:
            os.chdir(work)
            sys.stdout = open(out_path, "w")
            sys.stderr = open(err_path, "w")
            try:
                code = _child_exit(body())
            except SystemExit as e:
                code = _child_exit(e.code)
            except BaseException:
                traceback.print_exc()
                code = 1
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    return os.waitstatus_to_exitcode(status), wall, usage


# --- machine speed ----------------------------------------------------------------------

REFERENCE_S = 0.075  # what calibration_work takes at the reference speed


@dataclass(frozen=True)
class _Node:
    label: str
    kids: tuple


def _tree(depth: int, tag: int) -> _Node:
    if depth == 0:
        return _Node(f"leaf{tag % 7}", ())
    return _Node(f"n{depth}.{tag % 5}", tuple(_tree(depth - 1, 3 * tag + i) for i in range(3)))


def calibration_work() -> int:
    """Fixed work shaped like the program's: frozen dataclasses, structural
    hashing, an explicit-stack walk, text and sorting.  Never change it: it
    defines the reference speed."""
    seen = set()
    labels = []
    stack = [_tree(8, 1)]
    while stack:
        node = stack.pop()
        seen.add(node)
        labels.append(f"({node.label} {len(node.kids)})")
        stack.extend(node.kids)
    labels.sort()
    return 0 if len(seen) + len("".join(labels)) else 1


class SpeedGauge:
    """Calibration times around each timed call; `scale()` follows each call."""

    def __init__(self, work: str):
        self.work = work
        self.raw: list[float] = []
        self.last = self._measure()

    def _measure(self) -> float:
        code, wall, _ = fork_call(self.work, calibration_work, os.devnull, os.devnull)
        if code != 0:
            raise RuntimeError("calibration child failed")
        self.raw.append(wall)
        return wall

    def scale(self) -> float:
        """Factor to the reference speed for the call that just ended."""
        before, self.last = self.last, self._measure()
        return REFERENCE_S / ((before + self.last) / 2)


# --- set-up -----------------------------------------------------------------------------


def _program_inputs(the_plan: plans.Plan) -> None:
    """Import the program and let its `ti` verb write the certificates."""
    import proofbench.cli as cli

    for item in the_plan.inputs:
        if item.recipe[0] != "ti":
            continue
        _, spec, compact = item.recipe
        argv = ["ti", spec, "-o", item.name] + (["--compact"] if compact else [])
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up: ti {spec} exited {code}")


def _benchmark_inputs(the_plan: plans.Plan) -> None:
    """Write the benchmark's own inputs; mutants are made from `ti` output."""
    facts = {"mutants": {}}
    for item in the_plan.inputs:
        kind = item.recipe[0]
        if kind == "text":
            with open(item.name, "w") as f:
                f.write(item.recipe[1])
        elif kind == "mutant":
            _, base, mode, pick = item.recipe
            with open(base) as f:
                text, path = plans.mutate(f.read(), mode, pick)
            with open(item.name, "w") as f:
                f.write(text)
            facts["mutants"][item.name] = path
    with open("facts.json", "w") as f:
        json.dump(facts, f)


def set_up(the_plan: plans.Plan, base_dir: str) -> tuple[str, float]:
    """SETUPS fresh set-ups; returns the inputs' directory and the median time
    (at the reference speed).

    Only the program's part is timed: a child forked before the program is
    imported imports it and runs `ti` for every certificate.  The files the
    benchmark writes itself are made afterwards, once, in another child.
    """
    base_dir = os.path.abspath(base_dir)  # the children chdir into their directories
    times = []
    log = os.path.join(base_dir, "setup.err")
    gauge = SpeedGauge(base_dir)
    for i in range(SETUPS):
        work = os.path.join(base_dir, f"setup-{i}")
        os.makedirs(work)
        code, wall, _ = fork_call(work, lambda: _program_inputs(the_plan), os.devnull, log)
        wall *= gauge.scale()
        if code == 0 and i + 1 == SETUPS:
            code, _, _ = fork_call(work, lambda: _benchmark_inputs(the_plan), os.devnull, log)
        if code != 0:
            with open(log) as f:
                raise RuntimeError(f"set-up failed (exit {code}):\n{f.read()}")
        times.append(wall)
        if i + 1 < SETUPS:
            shutil.rmtree(work)
    return work, statistics.median(times)


# --- requests ---------------------------------------------------------------------------


class Context:
    """What verification reads back from the work directory."""

    def __init__(self, work: str):
        self.work = work
        with open(os.path.join(work, "facts.json")) as f:
            self.facts = json.load(f)
        self._nodes: dict[str, int] = {}

    def read(self, name: str) -> str:
        with open(os.path.join(self.work, name)) as f:
            return f.read()

    def mutant_path(self, name: str) -> list[int]:
        return self.facts["mutants"][name]

    def nodes(self, name: str) -> int:
        if name not in self._nodes:
            self._nodes[name] = len(plans.preorder(sx.parse(self.read(name))))
        return self._nodes[name]


def _crashed(exit_code: int, err_path: str) -> bool:
    if exit_code not in (0, 1, 2, 3):
        return True
    with open(err_path) as f:
        return "Traceback (most recent call last)" in f.read()


def run_request(cli, the_plan, index: int, work: str, gauge: SpeedGauge, tracer_path: str | None = None) -> Outcome:
    req = the_plan.requests[index]
    out_path = os.path.join(work, "request.out")
    err_path = os.path.join(work, "request.err")

    def body():
        if tracer_path is None:
            return cli.main(list(req.argv))
        tracer = tracing.Tracer(index)
        tracer.install()
        try:
            return cli.main(list(req.argv))
        finally:
            tracer.dump(tracer_path)

    code, wall, usage = fork_call(work, body, out_path, err_path)
    scaled = wall * gauge.scale()
    with open(out_path) as f:
        stdout = f.read()
    return Outcome(
        index, code, wall, scaled, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout,
        _crashed(code, err_path),
    )


def _records(stdout: str) -> list:
    try:
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return []


def verify(the_plan, outcomes: list[Outcome], ctx: Context) -> list[str | None]:
    """For each outcome, None when it is right (or crashed) and a reason when not."""
    answers: dict = {}
    out = []
    for o in outcomes:
        if o.crashed:
            out.append(None)
            continue
        key = (o.request, o.exit_code, o.stdout)
        if key not in answers:  # rounds repeat the same answers; check each once
            req = the_plan.requests[o.request]
            problem = oracle.verify(req.expect, o.exit_code, _records(o.stdout), ctx)
            answers[key] = None if problem is None else f"{req.kind}: {problem}"
        out.append(answers[key])
    return out


# --- a run ------------------------------------------------------------------------------


def _cert_bytes(the_plan, work: str) -> int:
    """Bytes of certificate files one round reads and writes."""
    return sum(os.path.getsize(os.path.join(work, c)) for r in the_plan.requests for c in r.certs)


def _gmean_of_kind_medians(the_plan, outcomes: list[Outcome]) -> float:
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        if not o.crashed:
            by_kind.setdefault(the_plan.requests[o.request].kind, []).append(o.scaled_s)
    medians = [statistics.median(v) for v in by_kind.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    the_plan = plans.build(workload, seed)
    scratch = os.path.join(root, ".perfbench")
    base_dir = os.path.join(scratch, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(base_dir)
    try:
        return _run(the_plan, seconds, trace, base_dir, scratch)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


def cache_state() -> dict[str, int]:
    """Sizes of the program's memo tables in this process."""
    state = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("proofbench."):
            for attr, obj in vars(module).items():
                if hasattr(obj, "cache_info"):
                    state[f"{mod_name}.{attr}"] = obj.cache_info().currsize
                elif attr.isupper() and "CACHE" in attr:
                    state[f"{mod_name}.{attr}"] = len(obj)
    return state


def _run(the_plan, seconds: float, trace: bool, base_dir: str, scratch: str) -> dict:
    work, setup_s = set_up(the_plan, base_dir)
    import proofbench.cli as cli

    # requests fork from this state; it must be the just-imported one
    imported = cache_state()

    outcomes: list[Outcome] = []
    traced: list[Outcome] = []
    traces: list[dict] = []
    trace_path = os.path.join(base_dir, "trace.json")
    gauge = SpeedGauge(work)
    rounds = 0
    started = time.perf_counter()
    while True:
        for i in range(len(the_plan.requests)):
            outcomes.append(run_request(cli, the_plan, i, work, gauge))
            if trace:
                traced.append(run_request(cli, the_plan, i, work, gauge, trace_path))
                if os.path.exists(trace_path):
                    with open(trace_path) as f:
                        traces.append(json.load(f))
                    os.remove(trace_path)
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break
    if cache_state() != imported:
        raise RuntimeError("the benchmark process filled a program cache; requests would not be cold")

    ctx = Context(work)
    problems = verify(the_plan, outcomes + traced, ctx)
    for p in sorted({p for p in problems if p}):
        print(f"WRONG {p}", file=sys.stderr)
    failed = sum(o.crashed for o in outcomes)
    if sum(o.crashed for o in traced) > (failed if trace else 0):
        print("warning: tracing made more requests crash than the untraced run", file=sys.stderr)
    ok = sum(not o.crashed and p is None for o, p in zip(outcomes, problems))
    result = {"correct": not any(problems), "attempted": len(outcomes), "failed": failed}
    _report_kinds(the_plan, outcomes)
    if trace:
        layers = tracing.summarise(traces, rounds)
        layers["cli.request_cpu_s"] = statistics.fmean(o.cpu_s for o in outcomes)
        layers["trace.overhead_share"] = sum(o.scaled_s for o in traced) / sum(o.scaled_s for o in outcomes) - 1
        units = {name: unit for name, unit, _ in tracing.METRICS}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        _write_spans(scratch, the_plan.workload, traces)
        return result
    # the loop's time at the reference speed: its requests, without the
    # calibration children and the parent's bookkeeping between requests
    loop_s = sum(o.scaled_s for o in outcomes)
    raw = statistics.median(gauge.raw)
    print(f"  calibration median {raw:.4f} s (reference {REFERENCE_S} s); raw loop "
          f"{sum(o.wall_s for o in outcomes):.2f} s, scaled {loop_s:.2f} s", file=sys.stderr)
    result["metrics"] = {
        "requests_per_s": {"value": ok / loop_s, "unit": "1/s"},
        "latency_gmean_s": {"value": _gmean_of_kind_medians(the_plan, outcomes), "unit": "s"},
        "peak_rss_mb": {"value": max(o.maxrss_kb for o in outcomes) / 1024, "unit": "MB"},
        "cert_bytes": {"value": _cert_bytes(the_plan, work), "unit": "bytes"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return result


def _report_kinds(the_plan, outcomes: list[Outcome]) -> None:
    by_kind: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_kind.setdefault(the_plan.requests[o.request].kind, []).append(o)
    for kind, group in sorted(by_kind.items()):
        ok = [o for o in group if not o.crashed]
        if ok:
            median = (f"{statistics.median(o.scaled_s for o in ok):8.4f} s"
                      f" (raw {statistics.median(o.wall_s for o in ok):8.4f} s)")
        else:
            median = "(none)"
        crashed = len(group) - len(ok)
        print(f"  {kind:32s} n={len(group):3d} median {median} crashed {crashed}", file=sys.stderr)


def _write_spans(scratch: str, workload: str, traces: list[dict]) -> None:
    """All kept spans of the traced run, one request per line."""
    path = os.path.join(scratch, f"spans-{workload}.jsonl")
    with open(path, "w") as f:
        for t in traces:
            f.write(json.dumps({k: t[k] for k in ("request", "spans_total", "spans")}) + "\n")
