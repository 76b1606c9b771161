"""iovsim benchmark: fixed workloads through the public library API.

    python3 benchmarks/bench.py --workload paper_mix --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the src/ directory next
to this one. With --trace 0 the workload runs untraced for --seconds and
the end-to-end metrics are printed. With --trace 1 an untraced and a
traced pass over the workload's first cells alternate for --seconds and
the per-layer metrics are printed. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

The process started here only orchestrates: it never imports iovsim.
Set-up is measured in several fresh processes (median reported) and the
cells run in one more, so peak memory is that process's own high-water
mark. Host time is scaled to a reference host by kernels that never
share a heap with the program: each set-up probe times one before it
imports iovsim, and the orchestrator times one while the cell process
is stopped at short intervals (KernelTicks).

`--record-reference` rewrites reference.json from the current code.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from tracer import ROOT, Boundaries, Tracer, layer_metrics, tail_ranks
from workloads import WORKLOADS, build_config, cells

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = (1, 2)  # the default workload seed and one held-out seed
SETUP_RUNS = 15           # fresh processes whose set-up time is measured
DEADLINE_S = 170.0        # whole invocation, below the 180 s limit
KERNEL_SHARE = 0.12       # host-speed kernel time per second of the cell process's CPU time
KERNEL_PERIOD_S = 0.1     # CPU time of the cell process between host-speed samples
SETUP_KERNEL_S = 0.05     # host-speed kernel time in each set-up probe, before set-up

CSV_HEADER = ("scenario,seed,n_comms,avg_delay_ms,avg_energy_mj,"
              "avg_throughput_kbps,pdr_pct,drops,route_failures")
TRACED_MODULES = ("iovsim.harness", "iovsim.routing", "iovsim.bfo", "iovsim.trust")


class Setup:
    """What a workload process has ready before its first cell."""

    def __init__(self, workload: str, seed: int, recording: bool = False):
        t0 = time.perf_counter()  # set-up starts here, after the benchmark's own imports
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import iovsim
        if not Path(iovsim.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"iovsim imported from {iovsim.__file__}, not from {SRC}")
        self.iovsim = iovsim
        self.modules = {m: importlib.import_module(m) for m in TRACED_MODULES}
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.cells = cells(self.workload, seed)
        t = time.perf_counter()
        self.configs = [build_config(iovsim, self.workload, c) for c in self.cells]
        self.config_ms = (time.perf_counter() - t) * 1e3
        self.reference = None if recording else load_reference(workload, seed)
        self.setup_s = time.perf_counter() - t0


def load_reference(workload: str, seed: int):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["digests"][workload].get(str(seed))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def span(tracer, name):
    if tracer is None:
        yield
        return
    depth = tracer.depth()
    tracer.enter(name)
    try:
        yield
    finally:
        tracer.unwind_to(depth)


def run_cell(s: Setup, index: int, outdir: Path, tracer=None, state=None,
             clock=time.perf_counter):
    """One cell: simulate, then write the CSV row (and the trace).
    Returns (report, seconds by `clock`, csv bytes, trace bytes or None)."""
    cfg = s.configs[index]
    csv_path = outdir / "cell.csv"
    trace_path = outdir / "cell.jsonl" if s.workload.writes_trace else None
    t0 = clock()
    with span(tracer, ROOT):
        if state is None:
            report, events = s.iovsim.simulate(cfg)
        else:
            report, events = s.iovsim.simulate(cfg, state)
    if trace_path is not None:
        with span(tracer, "harness.trace_write"):
            events.write_jsonl(str(trace_path))
    with span(tracer, "harness.csv_write"):
        s.iovsim.emit_csv([report], str(csv_path))
    seconds = clock() - t0
    del events
    csv = csv_path.read_bytes()
    trace = trace_path.read_bytes() if trace_path is not None else None
    return report, seconds, csv, trace


def digests(csv: bytes, trace) -> dict:
    return {"csv": sha256(csv), "trace": sha256(trace) if trace is not None else None}


def structural_problem(csv: bytes, trace) -> str:
    """Checks for seeds without reference digests."""
    lines = csv.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or len(lines) != 3 or lines[2] != "":
        return "CSV is not the fixed header plus one LF-terminated row"
    if "nan" in lines[1].lower():
        return "CSV row holds nan"
    if trace is not None:
        last = float("-inf")
        for line in trace.decode("utf-8").splitlines():
            t = json.loads(line)["time_ms"]
            if t < last:
                return f"event time decreases: {t} after {last}"
            last = t
    return ""


class Checker:
    """Judges each cell's outputs: against the reference digests when the
    seed has them, structurally otherwise; and a cell run again in the same
    process (a later lap, or the traced pass) must repeat its digests."""

    def __init__(self, s: Setup):
        self.s = s
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def describe(self) -> str:
        if self.s.reference is not None:
            return f"sha256 of every output against reference digests for seed {self.s.seed}"
        return (f"structural only (no reference digests for seed {self.s.seed}): fixed CSV "
                "header, no nan, event times never decrease; repeats must match")

    def judge(self, index: int, csv: bytes, trace) -> None:
        got = digests(csv, trace)
        problem = ""
        if self.s.reference is not None:
            want = self.s.reference[index]
            if (want["csv"], want["trace"]) != (got["csv"], got["trace"]):
                problem = "output differs from the reference digest"
        else:
            problem = structural_problem(csv, trace)
        first = self.seen.setdefault(index, got)
        if not problem and first != got:
            problem = "output differs from an earlier run of the same cell"
        self.fail_if(index, problem)

    def fail_if(self, index: int, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"cell {index} ({self.s.cells[index].label}): {problem}")

    def fail_run(self, problem: str) -> None:
        """A failure of the run as a whole, counted as one more attempt."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


class KernelTicks:
    """While active, every KERNEL_PERIOD_S of this process's CPU time a
    profiling timer stops it, and the orchestrator times the host-speed
    kernel before it goes on. Samples so fall inside long cells too, on
    the same CPU, while the kernel runs in a heap the program does not
    share. `clock` leaves out the wall time spent stopped. The request
    goes straight to the file descriptors, since the tick may interrupt
    code that holds sys.stdout."""

    def __init__(self):
        self.paused_s = 0.0
        self._in_tick = False

    def _tick(self, signum, frame):
        if self._in_tick:  # a tick that lands inside the handler is dropped
            return
        self._in_tick = True
        t0 = time.perf_counter()
        try:
            os.write(1, f"kernel {KERNEL_SHARE * KERNEL_PERIOD_S:.6f}\n".encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = os.read(0, 16)
                if not chunk:
                    raise SystemExit("orchestrator went away")
                reply += chunk
        finally:
            self.paused_s += time.perf_counter() - t0
            self._in_tick = False

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    def __enter__(self) -> "KernelTicks":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, KERNEL_PERIOD_S, KERNEL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def timed_phase(s: Setup, seconds: float, outdir: Path) -> dict:
    """Untraced: run the cell cycle, wrapping around, until time is up.
    The orchestrator times the host-speed kernel at KernelTicks, so
    comms_per_s can be given in seconds of a reference host."""
    check = Checker(s)
    comms = 0
    busy = 0.0
    t_end = time.perf_counter() + seconds
    i = 0
    with KernelTicks() as ticks:
        while True:
            index = i % len(s.cells)
            i += 1
            try:
                report, dt, csv, trace = run_cell(s, index, outdir, clock=ticks.clock)
            except Exception as exc:  # a failing cell is counted, the run goes on
                check.fail_if(index, f"raised {exc!r}")
            else:
                comms += report.n_comms
                busy += dt
                check.judge(index, csv, trace)
            if time.perf_counter() >= t_end:
                break
    metrics = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"check": check, "metrics": metrics, "comms": comms, "busy_s": busy}


def traced_phase(s: Setup, seconds: float, outdir: Path) -> dict:
    """Alternate an untraced and a traced pass over the first cells.
    Counts must repeat exactly from pass to pass; timings are medians
    over passes."""
    check = Checker(s)
    first = range(s.workload.traced_cells)
    passes = []
    ranks = {}
    untraced_s, traced_s = [], []
    skipped = []
    t_end = time.perf_counter() + seconds
    while True:
        busy = 0.0
        for index in first:
            try:
                _, dt, csv, trace = run_cell(s, index, outdir)
            except Exception as exc:
                check.fail_if(index, f"raised {exc!r}")
                continue
            busy += dt
            check.judge(index, csv, trace)
        untraced_s.append(busy)

        tracer = Tracer()
        busy = 0.0
        chain_len = appended = rejected = energy_entries = trace_bytes = 0
        with Boundaries(tracer, s.modules) as b:
            for index in first:
                tracer.cell = index
                state = {}
                try:
                    report, dt, csv, trace = run_cell(s, index, outdir, tracer, state)
                except Exception as exc:
                    check.fail_if(index, f"raised under tracing {exc!r}")
                    continue
                busy += dt
                check.judge(index, csv, trace)
                stats = report.chain_stats
                chain_len = max(chain_len, stats.main_length)
                appended += stats.main_length
                rejected += stats.rejected_blocks
                energy_entries += len(getattr(state.get("energy"), "entries", ()))
                trace_bytes += len(trace) if trace is not None else 0
                del state
            skipped = b.skipped
        traced_s.append(busy)
        passes.append(layer_metrics(tracer, {
            "ledger.appended": (appended, "count"),
            "ledger.rejected": (rejected, "count"),
            "ledger.chain_len": (chain_len, "count"),
            "network.energy_entries": (energy_entries, "count"),
            "harness.trace_bytes": (trace_bytes, "count"),
        }))
        if len(passes) == 1:
            ranks = tail_ranks(tracer)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{s.workload.name}-s{s.seed}.tsv.gz"
            tracer.write(str(spans_path))
        del tracer
        if time.perf_counter() >= t_end:
            break

    metrics = {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "count":
            if any(v != value for v in values):
                check.fail_run(f"count {name} differs between traced passes: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["config.build_ms"] = (s.config_ms, "ms")
    metrics["trace_overhead_pct"] = (
        100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0), "%")
    return {"check": check, "metrics": metrics, "passes": len(passes),
            "spans": str(spans_path.relative_to(REPO)), "skipped_sites": skipped,
            "tail_ranks": ranks}


def worker(args) -> int:
    if args.role == "probe":
        # Host speed of this very process, read before the package is imported.
        from hostspeed import IMPORT_REFERENCE_MS, HostSpeed, import_kernel
        import_kernel()  # warm-up call, not counted
        speed = HostSpeed(import_kernel, IMPORT_REFERENCE_MS)
        speed.sample(SETUP_KERNEL_S)
        s = Setup(args.workload, args.seed)
        print(json.dumps({"setup_s": s.setup_s, "speed_factor": speed.factor()}))
        return 0
    s = Setup(args.workload, args.seed)
    outdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_phase(s, args.seconds, outdir)
        else:
            result = timed_phase(s, args.seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    check = result.pop("check")
    result.update(checks=check.describe(), attempted=check.attempted,
                  failed=check.failed, problems=check.problems[:20])
    print(json.dumps(result))
    return 0


def read_steal():
    """Cumulative steal ticks of all CPUs, read-only; None if unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def spawn(args, role: str, timeout: float, speed=None) -> dict:
    """Run one probe or worker process and return its last output line.
    A worker's requests to time the host-speed kernel are served into
    `speed` while the worker waits. The process is killed at `timeout`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.startswith("kernel ") and speed is not None:
                speed.sample(float(line.split()[1]))
                proc.stdin.write("ok\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
    except (BrokenPipeError, ValueError):
        proc.kill()
    finally:
        proc.wait()
        expired = not timer.is_alive() and proc.returncode < 0
        timer.cancel()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass
    if expired:
        raise subprocess.TimeoutExpired(cmd, timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(last)


def measure_setup(args, remaining):
    """Set-up time of fresh processes in reference-host seconds: each
    probe's time divided by the host speed the kernel read in that probe
    just before. Returns (median, raw times, speed factors)."""
    spawn(args, "probe", remaining())  # fills the bytecode cache; not counted
    raw, factors = [], []
    for _ in range(SETUP_RUNS):
        probe = spawn(args, "probe", remaining())
        raw.append(probe["setup_s"])
        factors.append(probe["speed_factor"])
    return statistics.median(r / f for r, f in zip(raw, factors)), raw, factors


def pin_to_one_cpu():
    """Run this process and the processes it starts on one CPU, so the
    host-speed kernel reads the speed of the CPU the program runs on: on
    a shared VM each vCPU's speed drifts on its own. Returns the CPU, or
    None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def orchestrate(args) -> int:
    from hostspeed import REFERENCE_MS, HostSpeed

    t_start = time.perf_counter()
    cpu = pin_to_one_cpu()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - t_start)

    steal_before = read_steal()
    setup = {}
    if not args.trace:
        setup_s, raw, factors = measure_setup(args, remaining)
        setup = {"setup_runs_s": raw, "setup_speed_factors": factors}
    speed = HostSpeed()
    result = spawn(args, "worker", remaining(), speed)
    steal_after = read_steal()
    metrics = result["metrics"]
    host = {}
    if not args.trace:
        if not speed.calls:
            raise RuntimeError("the cell process never stopped for a host-speed sample")
        host_rate = result["comms"] / result["busy_s"] if result["busy_s"] else 0.0
        metrics["comms_per_s"] = (host_rate * speed.factor(), "1/s")
        metrics["setup_s"] = (setup_s, "s")
        host = {"comms_per_host_s": host_rate, "kernel_ms": speed.per_call_ms()}

    steal = None if steal_before is None or steal_after is None else steal_after - steal_before
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {result['attempted']} cells, "
          f"{result['failed']} failed")
    print(f"checks: {result['checks']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        print(f"traced passes: {result['passes']}; spans written to {result['spans']}")
        if result["skipped_sites"]:
            print(f"call sites not found (reported as 0 calls): {result['skipped_sites']}")
    ranks = result.get("tail_ranks", {})
    for name in sorted(metrics):
        value, unit = metrics[name]
        rank = ranks.get(name[:-len(".tail_ms")]) if name.endswith(".tail_ms") else None
        note = f"  (p{rank[0]:g} of {rank[1]} calls)" if rank else ""
        print(f"  {name:42s} {value:>16.6g} {unit}{note}")
    if host:
        print(f"host speed: kernel {host['kernel_ms']:.4g} ms per call (reference "
              f"{REFERENCE_MS} ms); unscaled {host['comms_per_host_s']:.6g} comms per host second")
    info = {"steal_ticks": steal, "cpu": cpu, **setup, **host}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def record_reference() -> int:
    out = {"note": "sha256 of each cell's CSV file and JSONL trace (null when the "
                   "workload writes none), in cycle order; rewrite with --record-reference",
           "digests": {}}
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"record-{os.getpid()}"
    outdir.mkdir()
    try:
        for name in WORKLOADS:
            out["digests"][name] = {}
            for seed in REFERENCE_SEEDS:
                s = Setup(name, seed, recording=True)
                rows = []
                for index, cell in enumerate(s.cells):
                    _, _, csv, trace = run_cell(s, index, outdir)
                    rows.append({"cell": cell.label, **digests(csv, trace)})
                out["digests"][name][str(seed)] = rows
                print(f"recorded {name} seed {seed}: {len(rows)} cells", file=sys.stderr)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--role", choices=("orchestrator", "probe", "worker"),
                   default="orchestrator", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "iovsim" / "__init__.py").is_file():
        print(f"error: no iovsim package under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        p.error("--workload is required")
    if args.role != "orchestrator":
        return worker(args)
    try:
        return orchestrate(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
