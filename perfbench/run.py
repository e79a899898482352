"""End-to-end benchmark of bruhatcubes, with a traced run for per-layer figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-digests

Workloads are listed in ``WORKLOADS`` and explained in ``perfbench/README.md``.
Each round of a workload runs ``worker.py`` in a fresh interpreter, because
every memo of the program is process-wide; rounds repeat until ``--seconds``
is used up, and every round attempts the same operations.  The benchmark
checks each round's outputs against ``reference.py`` and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, medians over the rounds;
with ``--trace 1`` they are the per-layer ones, from rounds run under
``tracer.py``, plus the tracer's own overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 170
SAMPLE_BOUND = 60  # the CLI's default interval-size bound for sample mode at rank 6
DIGEST_SEEDS = 32  # --regen-digests records s6-sample digests for seeds 0..31
RSS_SAMPLE_S = 0.1  # interval between samples of the round's process-tree RSS
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def window(w) -> str:
    return "".join(str(a) for a in w)


def parse(text: str) -> tuple:
    return tuple(int(c) for c in text)


class Verdict:
    """Operations attempted and failed in one round.  An operation fails on
    a FAIL record, an exception, a nonzero exit or a failed output check;
    ``wrong`` lists the failed output checks, which make a run incorrect."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed: set = set()
        self.wrong: list[str] = []
        self.notes: list[str] = []

    def fail(self, op, wrong: str | None = None, note: str | None = None) -> None:
        self.failed.add(op)
        if wrong is not None:
            self.wrong.append(wrong)
        if note is not None:
            self.notes.append(note)

    def fail_all(self, note: str) -> None:
        self.failed = set(range(self.attempted))
        self.notes.append(note)


def report_records(stdout: str) -> tuple[str, list[dict]]:
    """The records of a JSON-lines sweep report, and the sha256 of their
    lines: the body without the header, which carries a timestamp."""
    lines = stdout.splitlines()[1:]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, [json.loads(line) for line in lines]


def finding_counts(records: list[dict]) -> dict:
    return dict(sorted(Counter(r["check"] for r in records if r["status"] == "FINDING").items()))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs for one seed, the job of one round, and the check of its result."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.attempts = 0  # operations in one round
        self.body_digest = None
        self.findings: dict = {}

    def job(self) -> dict:
        raise NotImplementedError

    def setup_job(self) -> dict:
        return {"kind": "setup"}

    def check(self, result: dict) -> Verdict:
        raise NotImplementedError

    def digest_key(self) -> str | None:
        return None

    def sweep_records(self, out: dict, verdict: Verdict) -> list | None:
        """The records of a ``verify`` report, or None when it wrote none.
        Exit code 1 must mean at least one FAIL record, and 0 none."""
        if out["error"] or out["code"] not in (0, 1):
            verdict.fail_all(f"verify exited with {out['code']}: {out['error']}")
            return None
        self.body_digest, records = report_records(out["stdout"])
        if (out["code"] == 1) != any(r["status"] == "FAIL" for r in records):
            verdict.wrong.append(f"exit code {out['code']} does not match the FAIL records")
        return records


class S5Exhaustive(Workload):
    name = "s5-exhaustive"
    CHECKS = ("dyer", "standard-hcd")
    IDENTITY_PAIRS = 300

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.index = reference.BruhatIndex(5)
        self.pairs = self.index.comparable_pairs()
        strict = [(u, v) for u, v in self.pairs if u != v]
        self.identity_pairs = random.Random(seed).sample(strict, self.IDENTITY_PAIRS)
        self.argv = ["verify", "--n", "5", "--checks", ",".join(self.CHECKS),
                     "--mode", "exhaustive", "--no-cache", "--format", "json"]
        self.ops = {(c, u, v): k for k, ((u, v), c) in
                    enumerate((pair, c) for pair in self.pairs for c in self.CHECKS)}
        self.attempts = len(self.ops)

    def job(self):
        return {"kind": "cli", "argvs": [self.argv],
                "poly_pairs": [[window(u), window(v)] for u, v in self.pairs]}

    def digest_key(self):
        return " ".join(self.argv)

    def check(self, result):
        ops = self.ops
        verdict = Verdict(self.attempts)
        if len(self.pairs) != 3781:
            verdict.wrong.append(f"reference counts {len(self.pairs)} comparable S5 pairs, not 3781")
        out = result["outputs"][0]
        records = self.sweep_records(out, verdict)
        if records is None:
            return verdict
        seen = Counter()
        for rec in records:
            op = ops.get((rec["check"], parse(rec["u"]), parse(rec["v"])))
            if op is None:
                verdict.wrong.append(f"record for a pair the reference does not know: {rec}")
                continue
            seen[op] += 1
            if rec["status"] != "PASS":
                verdict.fail(op, None if rec["status"] == "FAIL" else f"not PASS: {rec}")
        for op in range(len(ops)):
            if seen[op] != 1:
                verdict.fail(op, f"{seen[op]} records for operation {op}, expected 1")
        polys = {pair: coeffs for pair, coeffs in zip(self.pairs, result["polys"])}
        for u, v in self.pairs:
            problem = reference.rtilde_problem(u, v, polys[(u, v)], self.index)
            if problem:
                verdict.fail(ops[("dyer", u, v)], f"R-tilde({window(u)}, {window(v)}): {problem}")
        lookup = lambda a, b: polys[(a, b)]
        for u, v in self.identity_pairs:
            if reference.inversion_residue(u, v, lookup, self.index):
                verdict.fail(ops[("dyer", u, v)], f"inversion identity fails on [{window(u)}, {window(v)}]")
        self.findings = finding_counts(records)
        return verdict


class S6Sample(Workload):
    """The CLI samples the pairs from its ``--seed``.  Per-pair cost grows
    about linearly with interval size, so of the program seeds derived from
    the benchmark seed the first whose sample has a total interval size
    within 1% of ``SAMPLE_SIZE`` times the mean is used; the sample is
    predicted by replaying the CLI's documented draw sequence (two
    ``random.sample`` windows per candidate, kept when comparable and within
    the size bound), and the sampled pairs are then read from the report."""

    name = "s6-sample"
    SAMPLE_SIZE = 20
    INTERVAL_CHECKS = ("dyer", "standard-hcd", "congettura", "em0", "strong-ds", "bologna",
                       "cosimple-dh", "hw-bijection", "lemma-paths")
    # checks that write at least one record for every interval
    ALWAYS_RECORDED = tuple(c for c in INTERVAL_CHECKS if c != "bologna")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.index = reference.BruhatIndex(6)
        admissible = [s for s in (self.index.interval_size(u, v) for u, v in self.index.comparable_pairs())
                      if s <= SAMPLE_BOUND]
        target = self.SAMPLE_SIZE * statistics.fmean(admissible)
        for j in range(100_000):
            program_seed = seed * 100_000 + j
            self.predicted = self.predict(program_seed)
            total = sum(self.index.interval_size(u, v) for u, v in self.predicted)
            if abs(total - target) <= 0.01 * target:
                break
        self.program_seed = program_seed
        self.argv = ["verify", "--n", "6", "--checks", "all", "--mode", "sample",
                     "--seed", str(program_seed), "--sample-size", str(self.SAMPLE_SIZE),
                     "--no-cache", "--format", "json"]
        index3 = reference.BruhatIndex(3)
        self.product_intervals = {
            (u1 + tuple(a + 3 for a in u2), v1 + tuple(a + 3 for a in v2))
            for u1, v1 in index3.comparable_pairs()
            for u2, v2 in index3.comparable_pairs()
            if index3.interval_size(u1, v1) * index3.interval_size(u2, v2) <= SAMPLE_BOUND
        }
        self.attempts = self.SAMPLE_SIZE * len(self.INTERVAL_CHECKS) + len(self.product_intervals)

    def predict(self, program_seed: int) -> list:
        rng = random.Random(program_seed)
        base = list(range(1, 7))
        out = []
        while len(out) < self.SAMPLE_SIZE:
            u = tuple(rng.sample(base, 6))
            v = tuple(rng.sample(base, 6))
            if self.index.leq(u, v) and self.index.interval_size(u, v) <= SAMPLE_BOUND:
                out.append((u, v))
        return out

    def job(self):
        return {"kind": "cli", "argvs": [self.argv]}

    def digest_key(self):
        return " ".join(self.argv)

    def check(self, result):
        checks = len(self.INTERVAL_CHECKS)
        products = sorted(self.product_intervals)
        verdict = Verdict(self.attempts)
        out = result["outputs"][0]
        records = self.sweep_records(out, verdict)
        if records is None:
            return verdict
        sampled = [(parse(r["u"]), parse(r["v"])) for r in records if r["check"] == "dyer"]
        if len(sampled) != self.SAMPLE_SIZE:
            verdict.fail_all(f"{len(sampled)} sampled pairs, expected {self.SAMPLE_SIZE}")
            return verdict
        if sampled != self.predicted:
            print(f"note: the sample of --seed {self.program_seed} differs from the predicted one",
                  file=sys.stderr)
        positions: dict = {}
        for k, (u, v) in enumerate(sampled):
            positions.setdefault((u, v), []).append(k)
            if not self.index.leq(u, v):
                verdict.fail(k * checks, f"sampled pair {window(u)} {window(v)} is not comparable")
            elif self.index.interval_size(u, v) > SAMPLE_BOUND:
                verdict.fail(k * checks, f"sampled interval [{window(u)}, {window(v)}] exceeds {SAMPLE_BOUND}")
        product_ops = {p: self.SAMPLE_SIZE * checks + k for k, p in enumerate(products)}
        recorded = set()
        for rec in records:
            pair = (parse(rec["u"]), parse(rec["v"]))
            if rec["check"] == "product":
                ops = [product_ops.get(pair)]
                if ops[0] is None:
                    verdict.wrong.append(f"product record outside the expected intervals: {rec}")
                    continue
            else:
                c = self.INTERVAL_CHECKS.index(rec["check"])
                ops = [k * checks + c for k in positions.get(pair, [])]
                if not ops:
                    verdict.wrong.append(f"record for a pair that was not sampled: {rec}")
                    continue
            recorded.update(ops)
            if rec["status"] == "FAIL":
                for op in ops:
                    verdict.fail(op)
        expected = [k * checks + self.INTERVAL_CHECKS.index(c)
                    for k in range(self.SAMPLE_SIZE) for c in self.ALWAYS_RECORDED]
        for op in expected + list(product_ops.values()):
            if op not in recorded:
                verdict.fail(op, f"no record for operation {op}")
        self.findings = finding_counts(records)
        return verdict


class S6Rtilde(Workload):
    """R-tilde over every comparable S6 pair, resumed from a cache file that
    the program wrote for the first ``RESUME_FRACTION`` of the order.  A
    quarter leaves both paths sizeable: for seed 1 the file holds 64,456
    entries and the timed part appends 63,252."""

    name = "s6-rtilde"
    RESUME_FRACTION = 0.25
    IDENTITY_PAIRS = 200

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.index = reference.BruhatIndex(6)
        self.order = self.index.comparable_pairs()
        rng = random.Random(seed)
        rng.shuffle(self.order)
        cut = int(len(self.order) * self.RESUME_FRACTION)
        self.attempts = len(self.order)
        strict = [(u, v) for u, v in self.order if u != v]
        self.identity_pairs = rng.sample(strict, self.IDENTITY_PAIRS)
        self.windows = [[window(u), window(v)] for u, v in self.order]
        self.resume_file = work / "resume.jsonl"
        self.round_file = work / "round.jsonl"
        result, error = run_worker(
            {"kind": "rtilde", "pairs": self.windows[:cut], "cache_file": str(self.resume_file)},
            work,
        )
        if error:
            raise RuntimeError(f"writing the resume file failed: {error}")

    def fresh_copy(self) -> str:
        shutil.copyfile(self.resume_file, self.round_file)
        return str(self.round_file)

    def setup_job(self):
        return {"kind": "setup", "cache_file": self.fresh_copy()}

    def job(self):
        return {"kind": "rtilde", "pairs": self.windows, "cache_file": self.fresh_copy()}

    def check(self, result):
        verdict = Verdict(self.attempts)
        polys = result["polys"]
        if len(polys) != len(self.order):
            verdict.fail_all(f"{len(polys)} polynomials for {len(self.order)} pairs")
            return verdict
        position = {}
        for op, ((u, v), coeffs) in enumerate(zip(self.order, polys)):
            position[(u, v)] = op
            problem = reference.rtilde_problem(u, v, coeffs, self.index)
            if problem:
                verdict.fail(op, f"R-tilde({window(u)}, {window(v)}): {problem}")
        lookup = lambda a, b: polys[position[(a, b)]]
        for u, v in self.identity_pairs:
            if reference.inversion_residue(u, v, lookup, self.index):
                verdict.fail(position[(u, v)], f"inversion identity fails on [{window(u)}, {window(v)}]")
        return verdict


WORKLOADS = {w.name: w for w in (S5Exhaustive, S6Sample, S6Rtilde)}


# ---------------------------------------------------------------------------
# rounds


def tree_rss_kb(root: int) -> int:
    """Resident memory of process ``root`` and all its descendants, in KiB,
    read from /proc; 0 where /proc cannot be read."""
    children: dict = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return 0
    for entry in entries:
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except (OSError, IndexError, ValueError):
            pass
        stack.extend(children.get(pid, ()))
    return total


def run_worker(job: dict, work: Path) -> tuple[dict | None, str | None]:
    """Run one job in a fresh interpreter; returns (result, error) and adds
    ``setup_s``, the time from process start until the program was ready.

    While the timed part runs, this process samples the summed RSS of the
    worker and every process under it, so that memory held by worker
    processes of the program counts; ``peak_rss_mb`` is the larger of that
    peak and the worker's own peak, which catches a peak between samples.
    The worker writes one line to its standard output when the timed part
    ends, and sampling stops there.  ``BRUHAT_CACHE`` is removed from the
    worker's environment, so no cache file of the user's is loaded."""
    job_path, result_path, stderr_path = work / "job.json", work / "result.json", work / "stderr.txt"
    for key in ("pairs", "poly_pairs"):
        if key in job:
            # one pair of windows a line, so the worker reads them as a stream
            path = work / f"{key}.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in job[key]), encoding="utf-8")
            job[key] = str(path)
    job = {"src": str(SRC), **job}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = {key: value for key, value in os.environ.items() if key != "BRUHAT_CACHE"}
    peak_kb = 0
    started = time.monotonic()
    deadline = started + ROUND_TIMEOUT_S
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        try:
            # sample until the end-of-timed-part line, or end of file
            while not select.select([proc.stdout], [], [], RSS_SAMPLE_S)[0]:
                peak_kb = max(peak_kb, tree_rss_kb(proc.pid))
                if time.monotonic() > deadline:
                    return None, f"round exceeded {ROUND_TIMEOUT_S} s"
            proc.stdout.readline()
            proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            return None, f"round exceeded {ROUND_TIMEOUT_S} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or not result_path.exists():
        error = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-2000:]
        return None, f"worker exited with {proc.returncode}: {error}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    if "peak_rss_mb" in result:
        result["peak_rss_mb"] = max(result["peak_rss_mb"], peak_kb / 1024.0)
    return result, None


def fingerprint(result: dict) -> str:
    """Digest of a round's outputs.  The report header, the only line with a
    ``created`` timestamp, is left out, so equal outputs give equal digests."""
    outputs = [
        (out["code"], out["error"], [line for line in out["stdout"].splitlines() if '"created":' not in line])
        for out in result.get("outputs", ())
    ]
    return hashlib.sha256(json.dumps([outputs, result.get("polys")]).encode()).hexdigest()


class Tally:
    """What a run measured, across its rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []
        self.setup_s: list[float] = []
        self.digests: set = set()
        self._checked: dict = {}

    def add(self, workload: Workload, result: dict | None, error: str | None) -> dict | None:
        """Check one round; returns its result, or None if it produced none.
        A round whose outputs equal those of a round already checked gets
        that round's verdict."""
        if error:
            verdict = Verdict(workload.attempts)
            verdict.fail_all(error)
            result = None
        else:
            key = fingerprint(result)
            if key not in self._checked:
                self._checked[key] = workload.check(result)
                if workload.body_digest:
                    self.digests.add(workload.body_digest)
            verdict = self._checked[key]
            self.setup_s.append(result["setup_s"])
        self.attempted += verdict.attempted
        self.failed += len(verdict.failed)
        self.wrong.extend(verdict.wrong)
        self.notes.extend(verdict.notes)
        return result


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[Tally, dict]:
    tally = Tally()
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        result = tally.add(workload, *run_worker(workload.job(), workload.work))
        if result:
            plain.append(result)
        if trace:
            job = dict(workload.job(), trace=True)
            result = tally.add(workload, *run_worker(job, workload.work))
            if result:
                traced.append(result)
    if not trace:
        while len(tally.setup_s) < SETUP_SAMPLES:
            result, error = run_worker(workload.setup_job(), workload.work)
            if error:
                tally.notes.append(error)
                break
            tally.setup_s.append(result["setup_s"])
    print(f"wall_s of the rounds: {[round(r['wall_s'], 4) for r in plain]}", file=sys.stderr)
    metrics = {}
    if plain and not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(tally.setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    elif plain and traced:
        for name in traced[0]["trace"]:
            metrics[name] = statistics.median(r["trace"][name] for r in traced)
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
    return tally, metrics


# ---------------------------------------------------------------------------
# digests


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def compare_digests(workload: Workload, tally: Tally) -> None:
    key = workload.digest_key()
    if key is None:
        return
    stored = load_digests().get(workload.name, {}).get(key)
    if len(tally.digests) > 1:
        print(f"digest: report bodies differ between rounds: {sorted(tally.digests)}", file=sys.stderr)
    for digest in tally.digests:
        if stored is None:
            print(f"digest: none stored for `{key}`", file=sys.stderr)
        elif digest != stored:
            print(f"digest: MISMATCH for `{key}`: {digest}, stored {stored}", file=sys.stderr)


def regen_digests(seeds, work: Path) -> dict:
    """Run each sweep workload once per seed and record its body digest."""
    digests: dict = {}
    for cls in (S5Exhaustive, S6Sample):
        for seed in seeds if cls is S6Sample else seeds[:1]:
            workload = cls(seed, work)
            result, error = run_worker(workload.job(), work)
            if error:
                raise RuntimeError(f"{cls.name} seed {seed}: {error}")
            verdict = workload.check(result)
            if verdict.failed or verdict.wrong:
                raise RuntimeError(f"{cls.name} seed {seed}: {(verdict.wrong + verdict.notes)[:3]}")
            digests.setdefault(cls.name, {})[workload.digest_key()] = workload.body_digest
            print(f"{cls.name} seed {seed}: {workload.body_digest}", file=sys.stderr)
    return digests


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-digests", action="store_true",
                        help="rerun the sweeps and rewrite digests.json")
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bruhatcubes" / "__init__.py").is_file():
        print(f"error: no bruhatcubes package under {SRC}", file=sys.stderr)
        return 2
    if not args.regen_digests and args.workload is None:
        parser.error("--workload is required")
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.regen_digests:
            digests = regen_digests(list(range(DIGEST_SEEDS)), work)
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            return 0
        units = declared_metrics(bool(args.trace))
        workload = WORKLOADS[args.workload](args.seed, work)
        tally, metrics = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    compare_digests(workload, tally)
    if workload.findings:
        print(f"FINDING records per check: {workload.findings}", file=sys.stderr)
    for line in tally.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    for line in tally.notes[:20]:
        print(f"failed: {line}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
