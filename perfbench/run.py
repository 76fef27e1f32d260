"""Paper-scale benchmark of the GMAC/ADSM simulator.

Usage (from the repository root)::

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload fault-storm --seed 3 --seconds 20
    python3 perfbench/run.py --workload recovery --trace 1   # per-layer table

With ``--workload all`` (the default) each workload runs in its own child
process, so its set-up time and peak memory are its own.

Each workload expands its spec list from the experiment registry at paper
scale, builds inputs (set-up, timed separately), then runs whole passes
over the specs until ``--seconds`` have been measured, at least two
(``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, which
also declares every metric's name, unit and bound).  The
passes' sha256 digests of ``SpecOutcome.canonical_bytes()`` must agree;
specs that raise or fail verification count as failed.  ``--trace 1``
runs one untraced and one traced pass instead and reports per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The simulator is imported from ``src/`` next to this directory, never
from an installed copy; without it the benchmark exits non-zero.  Spans of
a traced run, the pooled workload's throwaway result cache and the
cross-workload digests live under ``.bench_build/perfbench/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".bench_build" / "perfbench"
MANIFEST = ROOT / "BENCHMARK.json"

#: Thread-pool variables pinned to one thread in every benchmark process,
#: so a pool of N workers runs N threads on N cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: String-hash seed of every benchmark process.
HASH_SEED = "0"

#: Set-up samples per workload (fresh processes; the median is reported).
SETUP_SAMPLES = 3


def configure_environment():
    """Pin threads and scale, drop every other simulator knob, find src/."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SCALE"] = "paper"
    os.environ["REPRO_RESULT_CACHE"] = "0"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def environment_record():
    import numpy
    from repro.experiments.cache import source_fingerprint
    from repro.experiments.result import environment_stamp

    stamp = environment_stamp()
    return {
        "commit": stamp["commit"], "source": source_fingerprint()[:16],
        "backend": stamp["backend"], "scale": stamp["scale"],
        "nproc": nproc(), "threads": os.environ[THREAD_VARS[0]],
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def nproc():
    return len(os.sched_getaffinity(0))


def setup_probe(workload_name, seed):
    """Time one cold set-up in a fresh process (import, expand, build)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload_name, "--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb(pooled):
    """Peak RSS of this process, plus the largest pool worker's.

    Read before any set-up probe starts, so the only children counted are
    the pool's workers.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb * 1024 / 1e6


def stop_resource_tracker():
    """Stop and reap the helper process the pool's shared memory started.

    multiprocessing starts it on first use and otherwise leaves it to exit
    after this process; the benchmark waits for every process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_pass(workload, specs, absorb=None):
    import suite

    suite.isolate()
    if workload.pooled:
        return suite.run_pooled_pass(specs, OUTPUT / f"cache-{os.getpid()}",
                                     nproc(), absorb=absorb)
    return suite.run_serial_pass(specs)


def verdict(specs, passes, shared=True):
    """The result's ``correct``, ``attempted`` and ``failed`` fields.

    A spec execution fails when it raises, returns ``verified=False`` or
    its digest differs from the first pass's; a mismatch or an unverified
    outcome also makes the run incorrect.
    """
    reference = passes[0].spec_digests()
    failed, mismatched = 0, []
    for number, result in enumerate(passes):
        bad = set(result.failed())
        for index, digest in enumerate(result.spec_digests()):
            if digest != reference[index]:
                mismatched.append((number, index))
                bad.add(index)
        failed += len(bad)
    for number, index in mismatched:
        print(f"  digest mismatch: pass {number} spec {specs[index].key()}")
    unverified = any(outcome is not None and not outcome.verified
                     for result in passes for outcome in result.outcomes)
    return {"correct": shared and not mismatched and not unverified,
            "attempted": len(specs) * len(passes), "failed": failed}


def check_shared_digest(workload, seed, digest):
    """paper-sweep and pooled-sweep run the same specs: same digest.

    Each records its digest under the source fingerprint and seed and
    compares with the other's, when one exists (always, in a one-process
    run of every workload).
    """
    import suite
    from repro.experiments.cache import source_fingerprint

    if workload.experiments != suite.PAPER_FIGURES:
        return True
    path = OUTPUT / f"digest-{source_fingerprint()[:16]}-seed{seed}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    known[workload.name] = digest
    OUTPUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True))
    agree = len(set(known.values())) == 1
    if not agree:
        print(f"  digest mismatch across workloads: {known}")
    return agree


def describe_samples(samples):
    import suite

    if not samples:
        return "exact"
    text = (f"median of n={len(samples)} "
            f"[{min(samples):.4f}..{max(samples):.4f}]")
    found = suite.tail(samples)
    if found is not None:
        text += f", p{found[0]:g}={found[1]:.4f}"
    return text


def measure(workload, seed, seconds, declared):
    """Untraced run: set-up samples, passes, end-to-end metrics."""
    import metrics
    import suite

    specs = suite.expand_specs(workload, seed)
    suite.set_up(specs)
    # This process's own set-up is one sample; the rest come from fresh
    # probe processes after the passes, so every sample includes the import.
    samples = [time.perf_counter() - _STARTED]
    passes = []
    measuring = time.perf_counter()
    while True:
        passes.append(run_pass(workload, specs))
        elapsed = time.perf_counter() - measuring
        typical = statistics.median([p.wall_s for p in passes])
        if len(passes) >= 2 and elapsed + typical > seconds:
            break
    peak_mb = peak_rss_mb(workload.pooled)
    samples += [setup_probe(workload.name, seed)
                for _ in range(SETUP_SAMPLES - 1)]
    shared = check_shared_digest(workload, seed, passes[0].digest())
    summary = verdict(specs, passes, shared)
    values = metrics.end_to_end(samples, passes, peak_mb)
    print(f"{workload.name}: {len(specs)} specs x {len(passes)} passes, "
          f"seed {seed}, digest {passes[0].digest()[:16]}")
    print("  pass walls s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    units = {metric["name"]: metric["unit"] for metric in declared}
    for name, unit in units.items():
        value, samples_ = values[name]
        print(f"  {name:<14} {value:>14.4f} {unit:<7} "
              f"{describe_samples(samples_)}")
    spec_ms = [s * 1e3 for p in passes for s in p.spec_s]
    print(f"  {'spec_ms':<14} {statistics.median(spec_ms):>14.4f} {'ms':<6} "
          f"{describe_samples(spec_ms)}")
    failed, attempted = summary["failed"], summary["attempted"]
    print(f"  {'failed_frac':<14} {failed / attempted:>14.4f} ratio  "
          f"{failed} of {attempted}")
    slowdown = suite.gmac_slowdown(passes[0])
    if slowdown:
        print(f"  {'gmac_slowdown':<14} {slowdown:>14.4f} ratio  exact")
    for index in passes[0].failed():
        error = passes[0].errors[index] or "verified=False"
        print(f"  failed: {specs[index].workload}/{specs[index].mode}/"
              f"{specs[index].protocol} ({error})")
    summary["metrics"] = {name: {"value": values[name][0], "unit": unit}
                          for name, unit in units.items()}
    return summary


def trace(workload, seed, declared):
    """Traced run: one untraced pass, one traced pass, per-layer table."""
    import metrics
    import spans
    import suite

    specs = suite.expand_specs(workload, seed)
    recorder = spans.SpanRecorder()
    instrumentation = spans.Instrumentation(
        recorder, {spec: index for index, spec in enumerate(specs)})
    with instrumentation:
        suite.set_up(specs)
    untraced = run_pass(workload, specs)
    with instrumentation:
        traced = run_pass(workload, specs, absorb=instrumentation.absorb)
    summary = verdict(specs, [untraced, traced])
    totals = spans.totals_by_name(recorder)
    spec_name = recorder.name_id(spans.SPEC_SPAN)
    spec_spans_s = [recorder.end[i] - recorder.start[i]
                    for i in range(len(recorder))
                    if recorder.name[i] == spec_name]
    values = metrics.per_layer(untraced, traced, totals,
                               instrumentation.spec_counts, spec_spans_s)
    OUTPUT.mkdir(parents=True, exist_ok=True)
    recorder.save(OUTPUT / f"spans-{workload.name}-seed{seed}.npz")
    units = {metric["name"]: metric["unit"] for metric in declared}
    print(f"{workload.name} (traced): {len(specs)} specs, seed {seed}, "
          f"{len(recorder)} spans")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>18.6f} {unit}")
    fault_path = sum(values[name] for name in (
        "os.segv_s", "os.mprotect_s", "core.handler_s", "hw.copy_s",
        "util.avl_s", "sim.resource_s"))
    print(f"  fault-path self s (os+core+hw+util+sim) {fault_path:.4f} vs "
          f"workloads.kernel_s {values['workloads.kernel_s']:.4f}")
    summary["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}
    return summary


def run_all(args):
    """Every workload, each in a fresh child process of this script."""
    import suite

    results = {}
    for name in suite.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perfbench: workload {name} ended with exit "
                             f"code {done.returncode} and no result")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None):
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    configure_environment()
    sys.path.insert(0, str(HERE))
    import suite

    if args.workload != "all" and args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {sorted(suite.WORKLOADS)} or 'all'")
    if args.setup_probe:
        suite.set_up(suite.expand_specs(suite.WORKLOADS[args.workload],
                                        args.seed))
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        return 0
    if args.workload == "all":
        summary = run_all(args)
    else:
        workload = suite.WORKLOADS[args.workload]
        if args.trace:
            summary = trace(workload, args.seed, manifest["per_layer"])
        else:
            summary = measure(workload, args.seed, args.seconds,
                              manifest["end_to_end"])
        stop_resource_tracker()
        print("environment: " + json.dumps(environment_record()))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes are salted per process, which moves dict and set
        # layouts and with them a pass's host time from run to run; every
        # benchmark process (probes and pool workers inherit it) uses one.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
