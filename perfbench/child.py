"""One cold benchmark process: import topolab, run one workload, check it.

Run by ``run.py``, never by hand:

    python3 perfbench/child.py WORKLOAD SEED REPORT_PATH [--trace | --setup-only]

The process stamps the monotonic clock (system-wide on Linux, so the parent can
subtract its own spawn stamp) as soon as ``topolab`` and every submodule are
imported; that is the end of set-up. It then runs the workload, checks each
operation against the pinned values, and writes a JSON report to REPORT_PATH.
A check-all process prints the CLI's report stream on stdout; the parent
compares those bytes with the pinned output.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import topolab  # noqa: E402  (imports every submodule but the CLI)
import topolab.cli  # noqa: E402

SETUP_DONE = time.monotonic()

MAPS_4PT = 87389  # continuous maps between the classes with at most 4 points
# Maps drawn by the seed for the naturality checks: each process then takes
# seconds, so a run holds several samples.
NATURALITY_SAMPLE = 10000


def check_all(seed: int) -> list[tuple[str, bool]]:
    # stdout is checked byte for byte by the parent
    code = topolab.cli.main(["check", "--suite", "all"])
    sys.stdout.flush()
    return [("exit-code", code == 0)]


def naturality_4pt(seed: int) -> list[tuple[str, bool]]:
    import random

    from topolab import corpus, filters, monadlab

    maps = list(corpus.maps_between(corpus.spaces_up_to(4, True)))
    ops = [("maps[<=4]", len(maps) == MAPS_4PT)]
    maps = tuple(random.Random(seed).sample(maps, NATURALITY_SAMPLE))
    transformations = []
    for kind in filters.KINDS:
        monad = monadlab.filter_monad(kind)
        transformations += [monad.unit, monad.mult]
    for kind in (filters.OPEN_PRIME, filters.CLOSED_PRIME):
        transformations.append(monadlab.alpha_transformation(kind))
    want = f"[PASS] naturality [{NATURALITY_SAMPLE} maps]"
    for nt in transformations:
        ops.append((nt.name, _guard(lambda: monadlab.check_naturality(nt, maps).line() == want)))
    return ops


def _guard(step):
    """Run one operation; an exception fails it and is reported on stderr."""
    try:
        return step()
    except Exception:  # a raising operation counts as failed, not as a crash
        import traceback

        traceback.print_exc()
        return False


WORKLOADS = {"check-all": check_all, "naturality-4pt": naturality_4pt}


def main() -> int:
    workload, seed, report_path, *flags = sys.argv[1:]
    report = {"setup_done": SETUP_DONE}
    if flags != ["--setup-only"]:
        trace = None
        if flags == ["--trace"]:
            from layers import LayerTrace

            trace = LayerTrace()
            trace.install()
        start = time.perf_counter()
        try:
            ops = WORKLOADS[workload](int(seed))
        finally:
            elapsed = time.perf_counter() - start
            if trace is not None:
                trace.remove()
        report["ops"] = ops
        if trace is not None:
            report["trace"] = {
                "metrics": trace.metrics(),
                "counters": trace.counters(),
                "spans": [("workload", 0.0, elapsed)]
                + [(name, s - start, e - start) for name, s, e in trace.spans],
            }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
