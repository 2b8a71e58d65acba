"""Cold-process benchmark for topolab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is check-all, naturality-4pt, or ``all``, which interleaves the two and
prints every end-to-end metric, fail_ratio included, per workload. Run it from the root of a checkout; it needs ``src/topolab`` there
and exits with code 2 without a result when that is missing.

Every sample is a fresh Python process (``child.py``) spawned and reaped here.
With ``--trace 0`` the run spawns several set-up probes, which also warm the
file cache, then workload processes for about ``--seconds`` (at least one),
and reports medians. With ``--trace 1`` it spawns one untraced and two traced
processes and reports the per-layer metrics; the counts of the two traced
processes must agree exactly. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Any operation that raises or
misses its pinned value is a failure, and the exit code is then 1.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINNED_STDOUT = HERE / "check-all.stdout"
PINNED_SHA256 = "a49c166d486b270eb387d56ca8d3caffffa164c0b3cb587b0ed892c2a0a21198"

WORKLOADS = ("check-all", "naturality-4pt")
# Items decided by one process: 87 reports; 8 naturality squares for each of
# 10,000 maps.
ITEMS = {"check-all": 87, "naturality-4pt": 8 * 10000}
# Operations checked per process, counted as failed when a process dies.
OPS = {"check-all": 87, "naturality-4pt": 9}
SEED_USED = {"check-all": False, "naturality-4pt": True}
SETUP_PROBES = 12  # cold starts per run that stop once topolab is imported
RUN_LIMIT_S = 170.0  # a run ends within this per workload, killing a stuck child
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "fail_ratio": "ratio",
}


_TAGS = itertools.count()


class Sample:
    """What one cold process measured and whether its operations held."""

    def __init__(self, workload: str, wall: float, rusage, setup: float | None, report: dict | None):
        self.workload = workload
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.setup = setup
        self.report = report
        self.attempted = 0
        self.failed = 0


def spawn(workload: str, seed: int, tmp: Path, deadline: float, mode: str = "") -> Sample:
    """Run one cold child process to completion and collect its measurements."""
    tag = f"{next(_TAGS)}"
    report_path, out_path, err_path = (tmp / f"{tag}.{ext}" for ext in ("json", "out", "err"))
    argv = [sys.executable, str(CHILD), workload, str(seed), str(report_path)]
    argv += [mode] if mode else []
    # a fixed string-hash seed makes dict probing, and so every call count, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - spawned), proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0 and report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    setup = report["setup_done"] - spawned if report else None
    sample = Sample(workload, ended - spawned, rusage, setup, report)
    if mode != "--setup-only":
        _judge(sample, out_path.read_bytes())
    errors = err_path.read_text(encoding="utf-8", errors="replace")
    if errors or sample.failed:
        sys.stderr.write(f"{workload}{' ' + mode if mode else ''}: exit {proc.returncode}, "
                         f"{sample.failed}/{sample.attempted} failed\n{errors[-4000:]}")
    return sample


def _judge(sample: Sample, stdout: bytes) -> None:
    """Count the sample's operations and how many missed their pinned value."""
    sample.attempted = OPS[sample.workload]
    if sample.report is None:
        sample.failed = sample.attempted
        return
    ops = sample.report["ops"]
    if sample.workload == "check-all":
        want = PINNED_STDOUT.read_bytes().splitlines()
        got = stdout.splitlines()
        sample.failed = sum(
            1 for i in range(sample.attempted) if i >= len(got) or got[i] != want[i]
        )
        exact = hashlib.sha256(stdout).hexdigest() == PINNED_SHA256 and all(ok for _, ok in ops)
        if not sample.failed and not exact:
            sample.failed = 1  # summary line, trailing bytes or exit code
        return
    sample.attempted = len(ops)
    sample.failed = sum(1 for _, ok in ops if not ok)


def median_metrics(samples: list[Sample], setups: list[float]) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric of one workload as (median, sample count)."""
    workload = samples[0].workload
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    walls = [s.wall for s in samples]
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "cpu_s": (statistics.median(s.cpu for s in samples), len(samples)),
        "setup_s": (statistics.median(setups), len(setups)) if setups else (float("nan"), 0),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), len(samples)),
        "items_per_s": (statistics.median(ITEMS[workload] / w for w in walls), len(walls)),
        "fail_ratio": (failed / attempted, attempted),
    }


def environment() -> dict:
    """Where and on what the numbers were taken."""
    sources = sorted((ROOT / "src" / "topolab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (a bare copy has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workloads: list[str], seed: int, seconds: float, tmp: Path, deadline: float):
    """The set-up probes, then interleaved rounds of cold workload processes."""
    setups: dict[str, list[float]] = {w: [] for w in workloads}
    for i in range(SETUP_PROBES):
        w = workloads[i % len(workloads)]
        probe = spawn(w, seed, tmp, deadline, "--setup-only")
        if probe.setup is not None:
            setups[w].append(probe.setup)
    samples: dict[str, list[Sample]] = {w: [] for w in workloads}
    start = time.monotonic()
    rounds = 0
    while True:
        order = workloads[rounds % len(workloads):] + workloads[: rounds % len(workloads)]
        for w in order:
            samples[w].append(spawn(w, seed, tmp, deadline))
        rounds += 1
        now = time.monotonic()
        per_round = (now - start) / rounds
        # start another round when that ends the run nearer to ``seconds``
        if now - start + per_round / 2 > seconds or now + per_round > deadline:
            break
    for w in workloads:
        setups[w] += [s.setup for s in samples[w] if s.setup is not None]
    return samples, setups


def run_traced(workload: str, seed: int, tmp: Path, deadline: float):
    """One untraced process as the overhead base, then two traced ones.

    The traced pair runs side by side when there are two cores, which keeps a
    traced run within the time limit. Untraced samples always run alone: a
    second busy core slows the first on a shared host.
    """
    base = spawn(workload, seed, tmp, deadline)
    traced: list[Sample] = []
    threads = [
        threading.Thread(target=lambda: traced.append(spawn(workload, seed, tmp, deadline, "--trace")))
        for _ in range(2)
    ]
    side_by_side = len(os.sched_getaffinity(0)) > 1
    for batch in [threads] if side_by_side else [[t] for t in threads]:
        for t in batch:
            t.start()
        for t in batch:
            t.join()
    samples = [base] + traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    info = {"untraced_wall_s": base.wall, "traced_wall_s": [s.wall for s in traced]}
    reports = [s.report.get("trace") if s.report else None for s in traced]
    if None in reports:
        return {}, attempted, failed + 1, info
    # counts must repeat exactly, since a later change may rest a claim on them
    first, second = (r["counters"] for r in reports)
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differing:
        sys.stderr.write(f"{workload}: counter {key} differs: {first.get(key)} vs {second.get(key)}\n")
    attempted += len(first)
    failed += len(differing)
    metrics = {}
    for name, value in reports[0]["metrics"].items():
        if layer_unit(name) != "count":  # counts are equal in both, as checked above
            value = statistics.median(r["metrics"][name] for r in reports)
        metrics[name] = value
    metrics["trace.overhead_ratio"] = statistics.median(s.wall for s in traced) / base.wall
    info["spans"] = reports[0]["spans"]
    return {n: (v, layer_unit(n)) for n, v in metrics.items()}, attempted, failed, info


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and args.workload == "all":
        parser.error("--trace 1 takes a single workload")
    if not (ROOT / "src" / "topolab" / "__init__.py").is_file():
        print(f"error: no topolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hashlib.sha256(PINNED_STDOUT.read_bytes()).hexdigest() != PINNED_SHA256:
        print(f"error: {PINNED_STDOUT.name} does not match its pinned digest", file=sys.stderr)
        return 2
    # compile once so that no sample pays for writing bytecode
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    info["seed_used"] = {w: SEED_USED[w] for w in workloads}
    info.update(environment())
    info["loadavg_before"] = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        tmp = Path(tmpdir)
        if args.trace:
            metrics, attempted, failed, traced = run_traced(args.workload, args.seed, tmp, deadline)
            info.update(traced)
        else:
            samples, setups = measure(workloads, args.seed, args.seconds, tmp, deadline)
            metrics = {}
            attempted = failed = 0
            for w in workloads:
                table = median_metrics(samples[w], setups[w])
                attempted += sum(s.attempted for s in samples[w])
                failed += sum(s.failed for s in samples[w])
                for name, (value, count) in table.items():
                    print(f"{w:<15} {name:<12} {value:>14.6f} {UNITS[name]:<5} n={count}")
                    if args.workload == "all":
                        metrics[f"{w}.{name}"] = (value, UNITS[name])
                    elif name != "fail_ratio":  # carried by attempted and failed
                        metrics[name] = (value, UNITS[name])
                info[f"{w}.samples"] = [
                    {"wall_s": s.wall, "cpu_s": s.cpu, "peak_rss_mb": s.rss_mb, "setup_s": s.setup}
                    for s in samples[w]
                ]
                info[f"{w}.setup_samples"] = setups[w]
    info["loadavg_after"] = os.getloadavg()
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
