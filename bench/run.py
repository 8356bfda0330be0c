"""nfdof benchmark: seeded workloads driven through ``nfdof.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: ``sweep``, ``crosscheck``, ``distributions`` (see
``workloads.py``).  Every command runs in this one process, with the BLAS
pool pinned to one thread, and its output files are checked
(``output_checks.py``) outside the timed region.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over this
process and a few fresh ones, from before ``import nfdof`` until one
warm-up op of each command kind has finished), ``ops_per_s``,
``op_p50_ms``, ``op_tail_ms``, ``ok_share`` and ``peak_rss_mb``.  Every
reported time is divided by the host's speed, measured next to it with a
fixed calibration task (see ``CALIBRATION_NOMINAL_S``); raw times are in
the record.
``--trace 1`` runs the same untraced pass, then replays its first rounds
with every traced function wrapped (``layer_trace.py``), checks that the
replayed outputs are byte-identical, and prints the per-layer metrics
including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, workload shape, error rate, every op) is written to
``bench/results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread: with two, an SVD of a few hundred columns stalls by
# ~50x whenever another process holds the second CPU, and single-threaded
# it is no slower on these matrix sizes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
RESULTS = BENCH / "results"

SETUP_PROCESSES = 2        # fresh processes whose set-up is timed, besides this one
MAX_TIMED_S = 90.0         # stop starting ops after this much timed work
MIN_TAIL_BEYOND = 10

# The shared host's speed drifts by 20-40% over seconds to minutes, and
# process CPU time drifts with it.  Every timing is therefore divided by
# the host's speed at that moment: the time of a fixed calibration task
# (``_calibrate``, no nfdof code) taken before every op, over its median
# time on the reference machine.  Reported times read as on that machine;
# the raw times are in the record.
CALIBRATION_NOMINAL_S = 2.0e-3   # median of _calibrate on a 2-vCPU x86_64 VM
CALIBRATION_WINDOW = 10          # ops on each side whose samples set an op's speed
SETUP_CALIBRATIONS = 21          # samples taken right after each set-up

# One fixed warm-up op per command kind of each workload: (kind, config, argv).
WARMUPS = {
    "sweep": (
        ("sweep", {"sweep": {"parameter": "theta_T", "start": -math.pi,
                             "stop": math.pi, "steps": 721}}, []),
        ("figure", None, ["--id", "fig4"]),
    ),
    "crosscheck": (
        ("kernel-scan", {"n_samples": 1024}, []),
        ("svd-compare", {"sweep": {"parameter": "theta_R", "start": math.pi / 2,
                                   "stop": 1.5 * math.pi, "steps": 3}}, []),
        ("figure", None, ["--id", "fig5"]),
    ),
    "distributions": (
        ("stats", {"stats": {"scenario": "full-visibility", "R": 20.0,
                             "grid_points": 21, "mc_samples": 20000}}, []),
        ("figure", None, ["--id", "fig10"]),
    ),
}


def _calibrate():
    """Time a fixed piece of work that runs no nfdof code: scalar Python
    arithmetic, small numpy array ops and a small SVD, the kinds of work
    the workloads do."""
    import numpy as np
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 3000):
        acc += math.sin(i * 1e-3) * math.sqrt(i) / (1.0 + i % 7)
    x = np.linspace(0.0, 1.0, 20000)
    for _ in range(8):
        acc += float(np.sum(np.exp(-x * x)))
    m = np.cos(np.outer(np.arange(60.0), np.arange(40.0)) * 1e-2)
    acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return time.perf_counter() - start


def _argv(kind, config, extra, stem):
    """CLI arguments for one op; writes its config file first."""
    argv = [kind] + list(extra)
    if config is not None:
        cfg_path = stem.with_suffix(".json")
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    return argv + ["--out", str(stem.with_suffix(".out"))]


def _call(cli, argv):
    """Run one command; returns (exit code, seconds, stderr, crash)."""
    err = io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an escaping exception is a crash of the command
        rc, crash = None, f"{type(e).__name__}: {e}"
    return rc, time.perf_counter() - start, err.getvalue(), crash


def _read_outputs(stem):
    out, man = stem.with_suffix(".out"), Path(str(stem.with_suffix(".out")) + ".manifest.json")
    data = out.read_bytes() if out.exists() else b""
    mdata = man.read_bytes() if man.exists() else b""
    for p in (out, man, stem.with_suffix(".json")):
        p.unlink(missing_ok=True)
    return data, mdata


def _warm_up(cli, workload, workdir):
    """One warm-up op per command kind; raises if any fails."""
    workdir.mkdir(parents=True, exist_ok=True)
    for j, (kind, config, extra) in enumerate(WARMUPS[workload]):
        stem = workdir / f"warmup{j}"
        rc, _, err, crash = _call(cli, _argv(kind, config, extra, stem))
        _read_outputs(stem)
        if rc != 0:
            raise RuntimeError(f"warm-up {kind} failed: rc={rc} {crash or err.strip()}")


def _setup_sample(start):
    """(raw, normalised) set-up time of this process, which began at
    ``start``; its host speed comes from calibrations taken right after."""
    raw = time.perf_counter() - start
    speed = statistics.median(_calibrate() for _ in range(SETUP_CALIBRATIONS))
    return {"raw_s": raw, "setup_s": raw * CALIBRATION_NOMINAL_S / speed}


def _probe_setup(workload):
    """Time a fresh process's set-up and print it as JSON."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from nfdof import cli
    _warm_up(cli, workload, WORK / f"probe{os.getpid()}")
    print(json.dumps(_setup_sample(start)))
    return 0


def _setup_samples(workload, n):
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _host_speed(calibrations):
    """Each op's host speed relative to the reference machine: the median
    of the calibration samples within CALIBRATION_WINDOW ops of it."""
    w = CALIBRATION_WINDOW
    return [statistics.median(calibrations[max(0, i - w):i + w + 1]) / CALIBRATION_NOMINAL_S
            for i in range(len(calibrations))]


def _nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def _tail_rank(n):
    """(percentile, samples beyond) of the highest percentile of n samples
    with at least ten beyond it: the eleventh-largest value."""
    beyond = min(MIN_TAIL_BEYOND, n - 1)
    return 100.0 * (n - beyond) / n, beyond


def _timings(latencies, ok, setup):
    """Timing metrics from every op's latency and whether it completed."""
    done = sorted(t for t, completed in zip(latencies, ok) if completed)
    p50 = _nearest_rank(done, 50.0) if done else float("nan")
    tail = done[len(done) - 1 - _tail_rank(len(done))[1]] if done else float("nan")
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_s": {"value": len(done) / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
    }


def _failure_class(rc, err, crash, checker):
    if crash:
        return "crash"
    if rc == 1:
        return "erfi-radius" if "erfi: |z|" in err else "numeric"
    if rc != 0:
        return "usage"
    if checker.failures:
        return "check:" + checker.failures[0]["check"]
    return None


class Run:
    """One untraced pass over a fixed number of whole rounds, with checks
    and records."""

    def __init__(self, cli, args):
        # imported only now: they import numpy, which set-up timing includes
        import output_checks
        import workloads
        self.cli, self.args = cli, args
        self.checks, self.wl = output_checks, workloads
        self.records, self.rounds, self.ops = [], [], []
        self.checks_ran = Counter()
        self.row_status = Counter()
        self.links = []
        self.digests = []
        self.incorrect = []

    def _shape_links(self, op):
        """Visibility status and channel-matrix size of the op's links."""
        import numpy as np
        from nfdof.constants import wavelength_from_frequency
        from nfdof.geometry import classify_visibility, make_link
        cfg = op.config
        if op.kind not in ("kernel-scan", "svd-compare"):
            return
        base = dict(L_T=cfg["L_T_m"], L_R=cfg["L_R_m"], theta_T=cfg["theta_T"],
                    theta_R=cfg["theta_R"], x0=cfg["x0_m"], y0=cfg["y0_m"],
                    frequency=cfg["frequency_hz"])
        values = [cfg["theta_R"]]
        if op.kind == "svd-compare":
            sw = cfg["sweep"]
            values = np.linspace(sw["start"], sw["stop"], sw["steps"])
        spacing = wavelength_from_frequency(cfg["frequency_hz"]) / 4.0
        for v in values:
            rep = classify_visibility(make_link(**dict(base, theta_R=float(v))))
            size = None
            if op.kind == "svd-compare" and rep.status in ("full", "partial-tx", "partial-rx"):
                # channel_matrix's grid: floor(l / spacing) + 1 points per segment
                size = (int(rep.l_R / spacing + 1e-9) + 1, int(rep.l_T / spacing + 1e-9) + 1)
            self.links.append({"kind": op.kind, "status": rep.status, "size": size})

    def execute(self):
        args, cli = self.args, self.cli
        WORK.mkdir(parents=True, exist_ok=True)
        timed = 0.0
        index = 0
        n_rounds = max(1, math.ceil(args.seconds / self.wl.NOMINAL_ROUND_S[args.workload]))
        rounds = self.wl.run_rounds(args.workload, args.seed, n_rounds, tiny=args.size == "tiny")
        for round_no, ops in enumerate(rounds):
            if timed >= MAX_TIMED_S:
                break
            self.rounds.append(ops)
            for op in ops:
                if timed >= MAX_TIMED_S:
                    break
                self._shape_links(op)
                stem = WORK / f"op{index}"
                calibration = _calibrate()
                argv = _argv(op.kind, op.config, op.argv, stem)
                rc, elapsed, err, crash = _call(cli, argv)
                timed += elapsed
                data, mdata = _read_outputs(stem)
                checker = self.checks.Checker()
                if rc == 0:
                    checker = self.checks.check_op(op, data.decode(), mdata.decode())
                    if op.kind == "sweep" or op.label in ("figure:fig4", "figure:fig8"):
                        self.row_status.update(line.rsplit(",", 1)[1]
                                               for line in data.decode().splitlines()[1:])
                self.checks_ran.update(checker.ran)
                failure = _failure_class(rc, err, crash, checker)
                if checker.incorrect or failure in ("crash", "usage"):
                    self.incorrect.append(index)
                self.records.append({
                    "i": index, "round": round_no, "label": op.label,
                    "latency_s": elapsed, "calibration_s": calibration,
                    "rc": rc, "ok": failure is None,
                    "failure": failure, "error": (crash or err.strip())[:200] or None,
                    "check_failures": checker.failures,
                })
                self.digests.append((rc, hashlib.sha256(data + b"\0" + mdata).hexdigest(), err))
                self.ops.append((op, argv, stem))
                index += 1
        self.timed_s = timed

    def end_to_end(self, setup):
        """(metrics, raw metrics): the reported metrics have every time
        divided by the host speed; the raw ones are as measured."""
        speed = _host_speed([r["calibration_s"] for r in self.records])
        for r, v in zip(self.records, speed):
            r["host_speed"] = v
        ok = [r["ok"] for r in self.records]
        completed = sum(ok)
        tail_p, beyond = _tail_rank(completed) if completed else (None, 0)
        self.tail_info = {"percentile": tail_p, "completed_ops": completed,
                          "samples_beyond": beyond}
        common = {
            "ok_share": {"value": completed / len(self.records), "unit": "share"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        raw = _timings([r["latency_s"] for r in self.records], ok,
                       statistics.median(s["raw_s"] for s in setup))
        metrics = _timings([r["latency_s"] / v for r, v in zip(self.records, speed)], ok,
                           statistics.median(s["setup_s"] for s in setup))
        return dict(metrics, **common), dict(raw, **common)

    def shape(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        labels = Counter(r["label"] for r in self.records)
        failures = Counter(r["failure"] for r in self.records if r["failure"])
        attempted = len(self.records)
        shape = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == self.args.workload),
            "rounds": len(self.rounds),
            "ops_by_label": dict(sorted(labels.items())),
            "failures_by_class": dict(sorted(failures.items())),
            "error_rate": sum(failures.values()) / attempted,
            "erfi_radius_share": failures.get("erfi-radius", 0) / attempted,
        }
        if self.row_status:
            total = sum(self.row_status.values())
            shape["row_status_share"] = {k: v / total for k, v in sorted(self.row_status.items())}
        if self.links:
            statuses = Counter(l["status"] for l in self.links)
            shape["link_status_share"] = {k: v / len(self.links)
                                          for k, v in sorted(statuses.items())}
            sizes = [l["size"] for l in self.links if l["size"]]
            if sizes:
                rows = sorted(s[0] for s in sizes)
                shape["svd_matrices"] = {
                    "count": len(sizes),
                    "columns": dict(Counter(str(s[1]) for s in sizes).most_common(6)),
                    "rows_min_median_max": [rows[0], rows[len(rows) // 2], rows[-1]],
                    "entries_total": sum(r * c for r, c in sizes),
                }
            scans = labels.get("kernel-scan", 0)
            if scans:
                shape["erfi_radius_share_of_kernel_scans"] = failures.get("erfi-radius", 0) / scans
        if self.args.workload == "distributions":
            shape["scenario_mix"] = {k.split(":", 1)[1]: v for k, v in labels.items()
                                     if k.startswith("stats:")}
        return shape


def _replay_traced(run, n_rounds):
    """Replay the first rounds with tracing on; returns the per-layer
    metrics and a summary that lists the ops whose output differed from
    the untraced pass."""
    from layer_trace import Tracer, layer_metrics
    tracer = Tracer()
    untraced = traced = 0.0
    mismatches = []
    bytes_out = 0
    with tracer.installed():
        for k, rec in enumerate(run.records):
            if rec["round"] >= n_rounds:
                break
            op, argv, stem = run.ops[k]
            if op.config is not None:
                stem.with_suffix(".json").write_text(json.dumps(op.config))
            tracer.op_id = k
            rc, elapsed, err, _ = _call(run.cli, argv)
            data, mdata = _read_outputs(stem)
            bytes_out += len(data) + len(mdata)
            traced += elapsed
            untraced += rec["latency_s"]
            if (rc, hashlib.sha256(data + b"\0" + mdata).hexdigest(), err) != run.digests[k]:
                mismatches.append(k)
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"{run.args.workload}-seed{run.args.seed}.spans.npz"
    tracer.save(spans_path)
    metrics = layer_metrics(tracer.layer_totals(), bytes_out, traced - untraced,
                            len(tracer.spans))
    info = {"rounds": n_rounds, "ops": sum(1 for r in run.records if r["round"] < n_rounds),
            "untraced_s": untraced, "traced_s": traced, "overhead_s": traced - untraced,
            "overhead_share": (traced - untraced) / untraced if untraced else None,
            "mismatched_ops": mismatches, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _environment(seed):
    import mpmath
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "nfdof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas_numpy": f"{blas.get('name')} {blas.get('version')}",
        "blas_scipy": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(), "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "crosscheck", "distributions"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small ops and one set-up probe (smoke test)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nfdof" / "__init__.py").is_file():
        print(f"error: no nfdof sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        return _probe_setup(args.workload)

    shutil.rmtree(WORK, ignore_errors=True)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from nfdof import cli
    _warm_up(cli, args.workload, WORK)
    setup = [_setup_sample(start)]
    if Path(cli.__file__).resolve().parent != (SRC / "nfdof").resolve():
        print(f"error: imported nfdof from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run(cli, args)
    if not args.trace:
        n_probes = 1 if args.size == "tiny" else SETUP_PROCESSES
        setup += _setup_samples(args.workload, n_probes)
    run.execute()
    metrics, raw_metrics = run.end_to_end(setup)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "environment": _environment(args.seed), "shape": run.shape(),
              "setup_samples": setup, "tail": run.tail_info,
              "timed_s": run.timed_s, "checks_ran": dict(sorted(run.checks_ran.items())),
              "calibration_nominal_s": CALIBRATION_NOMINAL_S,
              "end_to_end": metrics, "end_to_end_raw": raw_metrics}
    correct = not run.incorrect
    if args.trace:
        n_rounds = min(run.wl.TRACE_ROUNDS[args.workload], len(run.rounds))
        metrics, record["trace_run"] = _replay_traced(run, n_rounds)
        record["per_layer"] = metrics
        correct = correct and not record["trace_run"]["mismatched_ops"]
    record["ops"] = run.records
    attempted = len(run.records)
    failed = sum(1 for r in run.records if not r["ok"])
    record.update(correct=correct, attempted=attempted, failed=failed)

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)

    shape = record["shape"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in "
          f"{len(run.rounds)} rounds, {run.timed_s:.2f} s timed")
    print(f"error_rate {shape['error_rate']:.4f} {json.dumps(shape['failures_by_class'])}")
    print(f"tail percentile p{run.tail_info['percentile']} of "
          f"{run.tail_info['completed_ops']} completed ops, "
          f"{run.tail_info['samples_beyond']} beyond")
    if args.trace:
        tr = record["trace_run"]
        print(f"tracing overhead {tr['overhead_s']:.3f} s on {tr['ops']} replayed ops "
              f"({tr['overhead_share']:.1%}); mismatched outputs: {len(tr['mismatched_ops'])}")
    speed = statistics.median(r["host_speed"] for r in run.records)
    print(f"host speed: calibration takes {speed:.3f}x its reference time (median); "
          f"raw metrics: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in raw_metrics.items()))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
