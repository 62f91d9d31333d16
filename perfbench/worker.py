"""Benchmark passes in a fresh process: set up once, then time passes and check each.

Started by ``run.py`` several times per run, so set-up (import, input
building and a BLAS warm-up) is measured several times. Passes repeat
until ``--budget`` seconds after set-up are used up, at least one (one
untraced/traced pair with ``--trace 1``). Before each pass every
``cache_clear``-able hpqkit function (the ``lru_cache`` on the
junction-arm coefficients included) is cleared, so every pass starts with
cold program caches, as a batch user's run does. Only the workload call
is timed. A fixed reference loop is timed before the first pass and
after every pass, and each pass records the mean of the two beside it,
so that ``run.py`` can divide out the machine's speed. ``peak_rss_mb``
is ``ru_maxrss`` after set-up and the first pass. Writes its result as
JSON to ``--result``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program():
    """Import hpqkit from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import hpqkit

    if SRC.resolve() not in Path(hpqkit.__file__).resolve().parents:
        raise SystemExit(f"hpqkit imported from {hpqkit.__file__}, not from {SRC}")


def _clear_program_caches():
    for name, module in list(sys.modules.items()):
        if name == "hpqkit" or name.startswith("hpqkit."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _versions():
    import numpy
    import scipy

    blas = {}
    for lib in (numpy, scipy):
        info = lib.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas[lib.__name__] = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


_REF_MATRIX = None


def _reference_loop():
    """Time a fixed mix of the work a pass does: small ``eigh`` calls, interpreted Python, numpy array math.

    The loop uses no hpqkit code, so no change to the program moves it;
    only the machine's speed does. Returns its wall time in seconds.
    """
    import math

    import numpy as np
    import scipy.linalg

    global _REF_MATRIX
    if _REF_MATRIX is None:
        a = np.random.default_rng(0).normal(size=(51, 51))
        _REF_MATRIX = a + a.T
    wall0 = time.perf_counter()
    for _ in range(400):
        scipy.linalg.eigh(_REF_MATRIX, subset_by_index=(0, 3))
    x = 0.0
    for i in range(200_000):
        x += math.sin(i)
    v = np.linspace(0.0, 1.0, 100_000)
    for _ in range(60):
        v = np.cos(v)
    return time.perf_counter() - wall0


def _one_pass(workload, inputs, traced, workdir):
    """Time one pass of the workload with cold program caches, then check its outputs."""
    from spans import NullTracer, Tracer
    from workloads import Outcome

    workload.prepare(inputs)
    _clear_program_caches()
    tracer = Tracer() if traced else NullTracer()
    if traced:
        tracer.install()
    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    error = None
    try:
        output = workload.run(inputs, tracer)
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if traced:
        tracer.uninstall()

    if error is None:
        try:
            outcome = workload.check(inputs, output)
        except Exception as exc:
            outcome = Outcome(ops=1, failures={"check": [f"{type(exc).__name__}: {exc}"]})
    else:
        outcome = Outcome(ops=1, failures={"run": [error]})
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": outcome.ops,
        "failed": len(outcome.failures),
        "failures": [m for messages in outcome.failures.values() for m in messages][:5],
        "digest": outcome.digest,
        "files": outcome.files,
        "traced": traced,
    }
    if traced:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after set-up in which to start passes")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    import scipy.linalg

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    inputs = workload.setup(args.seed, size, args.workdir)
    # BLAS warm-up: start OpenBLAS's threads on a matrix of the solver's size
    a = np.random.default_rng(0).normal(size=(51, 51))
    for _ in range(3):
        scipy.linalg.eigh(a + a.T, subset_by_index=(0, 3))
    setup_s = time.perf_counter() - _T0

    # with --trace 1, untraced and traced passes alternate, starting untraced
    step = 2 if args.trace else 1
    start = time.perf_counter()
    passes, peak_rss_mb = [], None
    # the reference loop runs before the first pass and after every pass
    refs = [_reference_loop()]
    while True:
        began = time.perf_counter()
        for _ in range(step):
            passes.append(_one_pass(workload, inputs, bool(args.trace) and len(passes) % 2 == 1, args.workdir))
            if peak_rss_mb is None:
                # the peak of set-up and one untraced pass, as in a one-pass process
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            refs.append(_reference_loop())
        now = time.perf_counter()
        if now + (now - began) - start > args.budget:
            break

    # each pass is set against the mean of the reference loops on either side of it
    for p, before, after in zip(passes, refs, refs[1:]):
        p["ref_wall_s"] = (before + after) / 2.0

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "size": size,
        "versions": _versions(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
