"""One round of a workload, in a fresh interpreter.

Usage: ``python3 worker.py JOB.json RESULT.json``.  ``run.py`` writes the job
and reads the result; every memo of the program is process-wide, so each
round runs in its own process.

Job keys:

- ``src``: directory that holds the ``bruhatcubes`` package.
- ``kind``: ``"cli"`` runs ``cli.main`` in-process on each argument list in
  ``argvs``; ``"rtilde"`` evaluates ``rpoly.rtilde`` on each pair in
  ``pairs``; ``"setup"`` stops once the program is ready.
- ``cache_file``: for ``"rtilde"`` and its set-up, the polynomial cache file
  to resume from, installed before the first operation.
- ``pairs``: for ``"rtilde"``, a file of ``U V`` lines, read once the program
  is ready.
- ``poly_pairs``: a file of the same form, of the pairs whose R-tilde is read
  back after the timed part.
- ``trace``: install the per-layer tracer before the program is ready.

The result holds ``ready`` (a ``time.monotonic`` reading taken when the
program can run its first operation, comparable with the parent's clock),
``wall_s`` (the timed part), ``peak_rss_mb`` (this process's own peak RSS,
read at the end of the timed part), ``outputs`` and ``polys``.  When the
timed part ends the worker writes one line to its standard output, so that
``run.py`` stops sampling the RSS of its process tree there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """This process's peak RSS: ``VmHWM``, which belongs to the address space
    made at ``exec``.  ``ru_maxrss`` would not do: Linux carries it over
    ``exec``, so it would count the parent's size when the worker was started."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _parse(window: str) -> tuple:
    return tuple(map(int, window))


def _read_pairs(path: str | None) -> tuple[list, list]:
    """The pairs of a file of ``U V`` lines, as two lists of shared tuples,
    one tuple per permutation: read as a stream and held this way, the
    benchmark's copy of the input adds little to the program's memory, whose
    memo keys hold the same tuples."""
    perms: dict = {}
    us, vs = [], []
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                u, v = line.split()
                us.append(perms.setdefault(u, _parse(u)))
                vs.append(perms.setdefault(v, _parse(v)))
    return us, vs


def _run_cli(cli, argvs) -> list:
    outputs = []
    for argv in argvs:
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
            error = None
        except Exception:
            code, error = None, traceback.format_exc()
        outputs.append({"code": code, "stdout": captured.getvalue(), "error": error})
    return outputs


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    import bruhatcubes

    if not os.path.abspath(bruhatcubes.__file__).startswith(src + os.sep):
        raise ImportError(f"bruhatcubes was imported from {bruhatcubes.__file__}, not {src}")
    from bruhatcubes import cache, cli, rpoly

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    memo = None
    if job.get("cache_file"):
        memo = cache.PolyCache(job["cache_file"])
        rpoly.set_cache(memo)
    result = {"ready": time.monotonic()}

    if job["kind"] != "setup":
        us, vs = _read_pairs(job.get("pairs"))
        start = time.perf_counter()
        if job["kind"] == "cli":
            result["outputs"] = _run_cli(cli, job["argvs"])
        else:
            rtilde = rpoly.rtilde
            polys = [rtilde(u, v) for u, v in zip(us, vs)]
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = _peak_rss_mb()
        sys.stdout.write("timed\n")
        sys.stdout.flush()
        if tracer is not None:
            result["trace"] = tracer.metrics()
        if job["kind"] == "rtilde":
            result["polys"] = [list(poly) for poly in polys]
        elif job.get("poly_pairs"):
            # read back untimed, from the memo the timed part filled
            result["polys"] = [list(rpoly.rtilde(u, v)) for u, v in zip(*_read_pairs(job["poly_pairs"]))]
    if memo is not None:
        memo.close()
    with open(result_path, "w", encoding="utf-8") as fh:
        # json.dumps runs in C; json.dump to a file would encode in Python
        fh.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1], sys.argv[2])
    sys.stderr.flush()
    # the result file is written; skip freeing the program's memos, up to
    # hundreds of MB of small objects
    os._exit(code)
