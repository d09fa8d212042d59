"""hessllt benchmark: cold CLI processes, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  Each workload is one
fixed ``hessllt`` CLI command; this script runs it as a cold child process,
one child at a time, until the next child would end past S seconds (at least
one child always runs).  Every child's stdout, with ``timing_seconds``
removed, and its exit code must match the digest stored in digests.json;
a child that does not is counted as failed.

--trace 0 reports the end-to-end metrics: median wall time, import time,
CPU time and peak RSS of the children that passed; the import time also
counts SETUP_CHILDREN import-only children that start each run.  Every time
is taken at reference speed: while a child runs, probe.py measures how fast
the CPUs run a fixed loop and how much of their time the host steals, and
the child's times are multiplied by the resulting speed factor, so that the
host's slow and fast phases do not show as changes of the program.  The raw
times are kept in the record.  --trace 1 alternates untraced and traced
children and reports the per-layer metrics of layers.py plus the tracing
overhead, and stops with an error if a layer the workload exercises shows no
calls.

The workload inputs are fixed by their definitions below; the seed is
recorded with the results but changes no input.  The last stdout line is the
JSON result; the lines before it are a readable summary.  A full record with
every sample and the environment goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import layer_values, per_layer_metrics  # noqa: E402
from probe import SpeedProbe  # noqa: E402

RUN_LIMIT_S = 170.0  # every run, set-up included, ends well within 180 s
SETUP_CHILDREN = 5  # import-only children per run, for a steadier setup_s


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    spans: tuple[str, ...]  # spans that must show calls in the traced run


WORKLOADS = {
    "identities-n5": Workload(
        ("verify", "--scope", "identities", "--n", "5"),
        ("cli.main", "hessgraph.verify_identities", "hessgraph.csf",
         "hessgraph.orientation_e_expansion", "symfunc.in_basis", "symfunc.eq",
         "symfunc.omega", "symfunc.plethysm_scale", "symfunc.tables", "qrat.gcd"),
    ),
    "llt-n7": Workload(
        ("llt", "--h", "2,3,4,5,6,7,7", "--basis", "e", "--shifted"),
        ("cli.main", "hessgraph.llt", "hessgraph.orientation_e_expansion",
         "symfunc.in_basis", "symfunc.tables", "qrat.gcd"),
    ),
    "gkm-n4": Workload(
        ("verify", "--scope", "gkm", "--h", "2,3,4,4"),
        ("cli.main", "gkm.gkm_report", "gkm.degree_piece", "gkm.lifted_nullspace",
         "gkm.quotient_graded_character", "gkm.space_trace", "gkm.localization_pushforward",
         "linalg.blocked_rref", "linalg.nullspace_small", "linalg.tracer_setup",
         "linalg.tracer_trace", "multipoly.mp_mul", "multipoly.mp_divide_linear"),
    ),
    "permutohedron-n5": Workload(
        ("verify", "--scope", "permutohedron", "--n", "5"),
        ("cli.main", "permco.permco_report", "permco.face_module_character",
         "permco.face_and_h_series", "permco.coinvariant_graded_character",
         "permco.complete_graph_agreement", "linalg.blocked_rref", "linalg.nullspace_small",
         "linalg.certified_integer_nullspace", "linalg.tracer_setup", "linalg.tracer_trace",
         "characters.frobenius_char", "characters.induced_young"),
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def report_digest(stdout: bytes, exit_code: int) -> str:
    """sha256 of the exit code and the canonical JSON report without its
    timing_seconds field; output that is not a JSON object is hashed raw."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if isinstance(report, dict):
        report.pop("timing_seconds", None)
        body = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    else:
        body = stdout
    return hashlib.sha256(b"exit=%d\n" % exit_code + body).hexdigest()


@dataclass
class Child:
    traced: bool
    exit_code: int
    digest: str
    wall_s: float  # raw; times at reference speed are these times * speed
    cpu_s: float
    peak_rss_mb: float
    probe_unit_s: dict[int, float]
    stolen: float
    speed: float
    record: dict = field(default_factory=dict)
    passed: bool = False

    @property
    def setup_s(self) -> float:
        return self.record.get("setup_s", 0.0)


class Runner:
    """Starts one child process at a time inside a private scratch directory."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0
        self.probe = SpeedProbe()

    def child(self, argv: tuple[str, ...], mode: str | None = None) -> Child:
        self.count += 1
        out = self.scratch / f"child{self.count}.json"
        stdout_path = self.scratch / f"child{self.count}.out"
        cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out)]
        cmd += [f"--{mode}"] if mode else []
        cmd += ["--", *argv]
        with open(stdout_path, "wb") as stdout, open(self.scratch / "stderr.txt", "ab") as stderr:
            self.probe.start()
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT)
                status, usage = self._wait(proc)
                wall = time.perf_counter() - start
            finally:
                reading = self.probe.stop()
        code = os.waitstatus_to_exitcode(status)
        record = json.loads(out.read_text()) if out.exists() else {}
        return Child(
            traced=mode == "trace",
            exit_code=code,
            digest=report_digest(stdout_path.read_bytes(), code),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            probe_unit_s=reading.unit_s,
            stolen=reading.stolen,
            speed=reading.speed,
            record=record,
        )

    def _wait(self, proc: subprocess.Popen):
        # os.wait4 gives this child's own rusage; it blocks, so the parent never
        # wakes while the child runs, and SIGALRM kills a child that would
        # overrun the run's time limit
        def expire(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage


def git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = root / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def child_record(c: Child) -> dict:
    return {**{k: v for k, v in vars(c).items() if k != "record"}, "setup_s": c.setup_s}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hessllt" / "cli.py").is_file():
        print(f"error: no hessllt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "digests.json").read_text())[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    begun = time.monotonic()
    runner = Runner(scratch, deadline=begun + RUN_LIMIT_S)
    try:
        env = {
            "machine": platform.machine(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_revision": git_revision(ROOT),
            "loadavg_before": os.getloadavg(),
        }
        # untimed warm-up: loads the interpreter, NumPy and hessllt into the page cache
        warm = runner.child((), mode="env")
        env.update({k: v for k, v in warm.record.items() if k != "setup_s"})

        children: list[Child] = []
        start = time.perf_counter()
        setups = [runner.child((), mode="setup") for _ in range(SETUP_CHILDREN)]
        unit_s = 0.0
        while not children or time.perf_counter() - start + unit_s <= args.seconds:
            unit_start = time.perf_counter()
            children.append(runner.child(workload.argv))
            if args.trace:
                children.append(runner.child(workload.argv, mode="trace"))
            unit_s = max(unit_s, time.perf_counter() - unit_start)
            if time.monotonic() - begun + unit_s > RUN_LIMIT_S:
                break
        env["loadavg_after"] = os.getloadavg()
        stderr_tail = (scratch / "stderr.txt").read_text(errors="replace")[-2000:]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for c in children:
        c.passed = c.exit_code == expected["exit_code"] and c.digest == expected["sha256"]
    failed = [c for c in children if not c.passed]
    good = [c for c in children if c.passed] or children
    for c in failed:
        print(f"FAIL {args.workload}: exit {c.exit_code}, digest {c.digest} "
              f"(expected exit {expected['exit_code']}, digest {expected['sha256']})", file=sys.stderr)
    if failed and stderr_tail:
        print(stderr_tail, file=sys.stderr)

    untraced = [c for c in good if not c.traced]
    for c in setups:
        c.passed = c.exit_code == 0 and "setup_s" in c.record
    imports = untraced + [c for c in setups if c.passed]
    stats = {
        "wall_s": summary([c.wall_s * c.speed for c in untraced]),
        "setup_s": summary([c.setup_s * c.speed for c in imports]),
        "cpu_s": summary([c.cpu_s * c.speed for c in untraced]),
        "peak_rss_mb": summary([c.peak_rss_mb for c in untraced]),
    }
    raw = {
        "wall_s": summary([c.wall_s for c in untraced]),
        "setup_s": summary([c.setup_s for c in imports]),
        "cpu_s": summary([c.cpu_s for c in untraced]),
        "speed": summary([c.speed for c in untraced]),
    }
    if args.trace:
        traced = [c for c in good if c.traced and "spans" in c.record]
        if not traced:
            print(f"error: no traced child of {args.workload} left span records", file=sys.stderr)
            return 1
        per_child = [layer_values(c.record, c.speed) for c in traced]
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        layer = {k: (statistics.median_low if units[k] == "count" else statistics.median)(
            [v[k] for v in per_child]) for k in per_child[0]}
        untraced_wall = stats["wall_s"]["median"]
        traced_wall = statistics.median(c.wall_s * c.speed for c in traced)
        layer["trace.untraced_wall_s"] = untraced_wall
        layer["trace.traced_wall_s"] = traced_wall
        layer["trace.overhead_ratio"] = traced_wall / untraced_wall
        silent = [s for s in workload.spans if not layer[f"{s}.calls"]]
        if silent:
            print(f"error: {args.workload} exercises {', '.join(silent)} but the traced run "
                  "recorded no calls: a wrapper no longer reaches the code it measures",
                  file=sys.stderr)
            return 1
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "argv": ["hessllt", *workload.argv], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "end_to_end": stats, "raw": raw, "fail_ratio": len(failed) / len(children),
              "children": [child_record(c) for c in children],
              "setup_children": [child_record(c) for c in setups],
              "result": result}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}: hessllt {' '.join(workload.argv)}")
    print("environment " + json.dumps(env))
    for name, unit in END_TO_END:
        s = stats[name]
        print(f"{name:12s} median {s['median']:.4f} {unit}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
              + (f"  (raw median {raw[name]['median']:.4f})" if name in raw else ""))
    print(f"speed factor median {raw['speed']['median']:.4f}  q1 {raw['speed']['q1']:.4f}  "
          f"q3 {raw['speed']['q3']:.4f}")
    print(f"fail_ratio   {len(failed)}/{len(children)}")
    if args.trace:
        print(f"tracing overhead: traced wall {layer['trace.traced_wall_s']:.4f} s / untraced "
              f"{layer['trace.untraced_wall_s']:.4f} s = {layer['trace.overhead_ratio']:.3f}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
