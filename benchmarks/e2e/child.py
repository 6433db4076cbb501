"""One measured run in a fresh interpreter: ``python child.py '<job json>'``.

The driver (``run.py``) spawns this file once per run, never two at a time,
and reads the single JSON object it prints as its last line of output.

Jobs:

* ``{"mode": "run", "spec": {...}, "checkpoint": path|null, "trace": bool,
  "t_spawn": float}`` — build the ``RunSpec``, call ``execute_run`` and report
  the end-to-end quantities.  With ``trace`` the entry points of
  :mod:`layers` are wrapped for the duration of the call and the per-layer
  table and counters are added.  An untraced run touches nothing but
  ``repro.exp.spec.RunSpec``, ``repro.exp.runner.execute_run`` and the report
  keys ``energies``, ``max_bond_dimension``, ``sweeps[].seconds|energy|
  max_bond_dim|metrics``, ``metrics`` and ``modelled_seconds``.
* ``{"mode": "calibrate"}`` — single-thread dgemm rate and copy bandwidth of
  this host, for the roofline ratio of the traced table.

``t_spawn`` is the driver's ``CLOCK_MONOTONIC`` reading just before it
spawned this process; the clock is system-wide, so ``wall_s`` covers
interpreter start and imports exactly as a user of ``repro run`` waits for
them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from typing import Dict


def clock() -> float:
    """System-wide monotonic seconds (comparable across processes)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rusage() -> Dict[str, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_user_s": ru.ru_utime, "cpu_sys_s": ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,   # Linux reports KiB
            "minor_faults": ru.ru_minflt}


def _versions() -> Dict[str, str]:
    import numpy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run(job: Dict[str, object]) -> Dict[str, object]:
    """Execute one ``mode: run`` job and return its record."""
    t_spawn = float(job["t_spawn"])
    from repro.exp import runner
    from repro.exp.spec import RunSpec

    spec = RunSpec.from_dict(job["spec"])
    kwargs = {}
    if job.get("checkpoint"):
        kwargs["checkpoint_path"] = job["checkpoint"]

    record: Dict[str, object] = {}
    if not job.get("trace"):
        out = runner.execute_run(spec, **kwargs)
        record["wall_s"] = clock() - t_spawn
    else:
        import layers
        rec = layers.Recorder(clock=clock)
        counts = {"dmrg.davidson.matvecs": 0, "dmrg.davidson.iterations": 0,
                  "dmrg.checkpoint.save.bytes": 0}

        def after_davidson(result):
            counts["dmrg.davidson.matvecs"] += result.matvecs
            counts["dmrg.davidson.iterations"] += result.iterations

        def after_checkpoint(path):
            counts["dmrg.checkpoint.save.bytes"] += os.path.getsize(path)

        with layers.installed(rec, after={
                "dmrg.davidson.davidson": after_davidson,
                "dmrg.checkpoint.save": after_checkpoint}) as unresolved:
            rec.add_span(0, t_spawn, clock())         # layers.STARTUP
            out = runner.execute_run(spec, **kwargs)
            record["wall_s"] = clock() - t_spawn
        table = layers.summarize(rec, layers.entry_names())
        for name in unresolved:
            table[name] = None
        from repro.perf import flops
        record.update(layers=table, unresolved=unresolved, counts=counts,
                      flops=flops.global_counter().snapshot(),
                      spans=len(rec.entry))

    report = out.report
    record.update(
        energies=report["energies"],
        max_bond_dimension=report["max_bond_dimension"],
        sweeps=[{k: s[k] for k in ("seconds", "energy", "max_bond_dim",
                                   "metrics")} for s in report["sweeps"]],
        metrics=report["metrics"],
        modelled_seconds=report.get("modelled_seconds"))
    record.update(_rusage())
    record["versions"] = _versions()
    return record


def calibrate(budget_s: float = 0.5) -> Dict[str, float]:
    """Best-of-N single-thread dgemm rate and large-array copy bandwidth."""
    import numpy as np

    llc = 0
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in os.listdir(cache_dir):
            try:
                with open(f"{cache_dir}/{index}/size") as fh:
                    text = fh.read().strip()
            except OSError:
                continue
            scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
            llc = max(llc, int(text.rstrip("KM")) * scale)
    except OSError:
        pass
    llc = llc or 32 << 20             # sysfs unreadable: assume 32 MiB

    n = 1024
    a = np.random.default_rng(0).standard_normal((n, n))
    b = a.T.copy()
    out = np.empty_like(a)
    best = float("inf")
    t_end = clock() + budget_s
    while clock() < t_end:
        t = clock()
        np.matmul(a, b, out=out)
        best = min(best, clock() - t)
    gemm = 2.0 * n ** 3 / best / 1e9

    # a buffer of four times the last-level cache, one half copied onto the
    # other: both streams miss every cache level, and only one buffer has to
    # be faulted in (the dominant cost of this calibration on a VM)
    buf = np.ones(4 * llc // 8)
    half = buf.size // 2
    best = float("inf")
    for _ in range(3):
        t = clock()
        buf[half:2 * half] = buf[:half]
        best = min(best, clock() - t)
    return {"host.gemm_peak_gflops": gemm, "gemm_n": n,
            "host.mem_bw_gbs": 2.0 * half * 8 / best / 1e9,
            "llc_bytes": llc, "copy_buffer_bytes": int(buf.nbytes)}


def main() -> int:
    """Run the job given as ``argv[1]`` and print its record as JSON."""
    job = json.loads(sys.argv[1])
    try:
        record = calibrate() if job["mode"] == "calibrate" else run(job)
        status = 0
    except Exception as exc:  # noqa: BLE001 - the driver counts the failure
        traceback.print_exc()
        record = {"error": f"{type(exc).__name__}: {exc}"}
        status = 1
    print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
