"""End-to-end benchmark of the echoaudit CLI on three synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src/`` and every stage runs as ``python3 -m echoaudit.cli`` in a
fresh process, one process at a time.

A run has two phases:

* set-up, repeated several times and reported as the median ``setup_s``: one
  cold ``import echoaudit.cli`` plus, for the workloads that read a prepared
  corpus, the ``echoaudit synth`` run (and gzip) that writes it;
* the timed phase: the workload's stage processes, repeated until ``--seconds``
  have passed (at least once).  Every repetition's artifacts are checked
  (``checks.py``) and digested; a stage exiting non-zero or a failed check is
  a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` the timed phase alternates an untraced
repetition with a traced one (every process run through ``tracer.py``), and
the last line carries the per-layer metrics.  A full record of each run,
including the environment, the artifact digest and the checks, is written to
``perfbench/.results/``; ``compare.py`` compares two sets of records.

``--scale tiny`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / ".results"

# Table 1 targets, as pinned in tests/test_acceptance.py.
TABLE1_MEAN_AE = {"retweet": 0.002909, "reply": 0.002479, "like": 0.011154,
                  "quote": 0.000612}
TABLE1_LOG_PEARSON = {"retweet": -0.3469, "reply": -0.5649, "like": -0.2250,
                      "quote": -0.5690}

# Corpus sizes per scale.  "tiny" keeps the same shape for the self-tests;
# its graphs are too small for the default minimum in-degree of 100.
SCALES = {
    "full": {"pipeline_users": 10_000, "stages_users": 5_000,
             "influencers": 20, "min_indegree": None, "tweets": 100_000},
    "tiny": {"pipeline_users": 300, "stages_users": 300,
             "influencers": 5, "min_indegree": 20, "tweets": 2_000},
}


@dataclass
class Proc:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Ops:
    """Attempted and failed operations: stage processes and output checks."""
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_proc(stage: str, argv: list[str], log: Path) -> Proc:
    """Run one process to completion and read its resource use from wait4."""
    with open(log, "ab") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=fh, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    # wait4 reaped the child; tell Popen so it does not try again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(stage, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "echoaudit.cli", *args]


def traced_argv(spans: Path, run_id: str, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), run_id,
            "--", *args]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    setup_reps = 2

    def __init__(self, seed: int, scale: dict):
        self.seed = seed
        self.scale = scale

    def synth_config(self) -> dict | None:
        """Generator config of the set-up corpus, or None for no set-up synth."""
        return None

    def prepare(self, setup_dir: Path, log: Path, ops: Ops) -> None:
        """Write the timed run's inputs under setup_dir (timed as set-up)."""
        config = self.synth_config()
        if config is None:
            return
        cfg = setup_dir / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        proc = run_proc("synth", cli_argv(self.synth_args(setup_dir)), log)
        ops.record("setup synth", proc.code == 0, f"exit {proc.code}")

    def synth_args(self, setup_dir: Path) -> list[str]:
        return ["synth", "--config", str(setup_dir / "config.json"),
                "--out-dir", str(setup_dir / "synth")]

    def steps(self, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def corpus(self, inputs: Path, out: Path) -> Path:
        return inputs / "synth" / "corpus.jsonl"

    def check(self, inputs: Path, out: Path) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class PipelinePolarized(Workload):
    name = "pipeline-polarized"
    setup_reps = 5

    def prepare(self, setup_dir, log, ops):
        config = {"seed": self.seed, "n_users": self.scale["pipeline_users"],
                  "n_influencers_per_side": self.scale["influencers"]}
        (setup_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")

    def steps(self, inputs, out):
        argv = ["pipeline", "--config", str(inputs / "config.json"),
                "--out-dir", str(out)]
        if self.scale["min_indegree"] is not None:
            argv += ["--min-indegree", str(self.scale["min_indegree"])]
        return [("pipeline", argv)]

    def corpus(self, inputs, out):
        return out / "synth" / "corpus.jsonl"

    def check(self, inputs, out):
        return checks.polarized(out / "synth" / "ground_truth.json",
                                out / "ideology" / "scores.csv",
                                out / "ideology" / "meta.json", out / "report")


class StagesPolarized(Workload):
    name = "stages-polarized"

    def synth_config(self):
        return {"seed": self.seed, "n_users": self.scale["stages_users"],
                "n_influencers_per_side": self.scale["influencers"]}

    def prepare(self, setup_dir, log, ops):
        super().prepare(setup_dir, log, ops)
        src = setup_dir / "synth" / "corpus.jsonl"
        if src.is_file():
            # mtime=0 keeps the gzip header, and so the input, byte-stable.
            with open(src, "rb") as fin, \
                    open(setup_dir / "corpus.jsonl.gz", "wb") as raw, \
                    gzip.GzipFile("corpus.jsonl", "wb", 6, raw, mtime=0) as fout:
                shutil.copyfileobj(fin, fout)

    def steps(self, inputs, out):
        synth = inputs / "synth"
        min_indegree = self.scale["min_indegree"] or 100
        return [
            ("ingest", ["ingest", "--input", str(inputs / "corpus.jsonl.gz"),
                        "--schema", "flat", "--min-date", "2022-12-15T00:00:00Z",
                        "--lang", "en", "--filtered-out", str(out / "filtered.jsonl"),
                        "--rejects-out", str(out / "rejects.csv"),
                        "--exclusions-out", str(out / "exclusions.csv")]),
            ("graph", ["graph", "--input", str(out / "filtered.jsonl"),
                       "--seeds", str(synth / "seeds.txt"),
                       "--min-indegree", str(min_indegree),
                       "--graph-out", str(out / "graph.csv"),
                       "--influencers-out", str(out / "influencers.txt")]),
            ("ideology", ["ideology", "--graph", str(out / "graph.csv"),
                          "--influencers", str(out / "influencers.txt"),
                          "--anchor", "inf_a_00", "--min-distinct", "2",
                          "--tol", "1e-10", "--seed", "1",
                          "--scores-out", str(out / "scores.csv"),
                          "--meta-out", str(out / "meta.json")]),
            ("engagement", ["engagement", "--input", str(out / "filtered.jsonl"),
                            "--domains", str(synth / "domains.csv"),
                            "--scores", str(out / "scores.csv"),
                            "--granularity", "all", "--group-by", "ideology",
                            "--group-by", "reliability", "--group-by", "leaning",
                            "--out-dir", str(out / "engagement")]),
            ("report", ["report", "--input", str(out / "filtered.jsonl"),
                        "--graph", str(out / "graph.csv"),
                        "--scores", str(out / "scores.csv"),
                        "--domains", str(synth / "domains.csv"),
                        "--out-dir", str(out / "report")]),
        ]

    def check(self, inputs, out):
        return checks.polarized(inputs / "synth" / "ground_truth.json",
                                out / "scores.csv", out / "meta.json",
                                out / "report")


class CalibrationEngagement(Workload):
    name = "calibration-engagement"

    def synth_config(self):
        return {"mode": "calibration", "seed": self.seed,
                "n_tweets": self.scale["tweets"],
                "ae_targets": TABLE1_MEAN_AE, "pearson_targets": TABLE1_LOG_PEARSON}

    def steps(self, inputs, out):
        return [
            ("ingest", ["ingest", "--input", str(inputs / "synth" / "corpus.jsonl"),
                        "--filtered-out", str(out / "filtered.jsonl")]),
            ("engagement", ["engagement", "--input", str(out / "filtered.jsonl"),
                            "--granularity", "all",
                            "--out-dir", str(out / "engagement")]),
        ]

    def check(self, inputs, out):
        return checks.calibration(inputs / "synth" / "ground_truth.json",
                                  out / "engagement")


WORKLOADS = {w.name: w for w in (PipelinePolarized, StagesPolarized,
                                 CalibrationEngagement)}


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def cold_import(log: Path) -> str | None:
    """Import the CLI in a fresh interpreter; returns the kernel backend."""
    code = ("import echoaudit.cli, echoaudit.kernels as k; "
            "print(k.active_backend())")
    with open(log, "ab") as err:
        done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=err, env=child_env(), cwd=ROOT)
    return done.stdout.decode().strip() if done.returncode == 0 else None


def setup(workload: Workload, work: Path, log: Path, ops: Ops):
    """Run the set-up several times; returns (input dir, times, backend)."""
    times, digests, backend = [], [], None
    for rep in range(workload.setup_reps):
        setup_dir = work / f"setup{rep}"
        setup_dir.mkdir()
        started = time.perf_counter()
        backend = cold_import(log)
        ops.record("cold import", backend is not None, "import echoaudit.cli failed")
        workload.prepare(setup_dir, log, ops)
        times.append(time.perf_counter() - started)
        digests.append(checks.tree_digest(setup_dir))
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
    ops.record("setup determinism", len(set(digests)) == 1,
               f"{len(set(digests))} distinct input digests")
    return work / f"setup{workload.setup_reps - 1}", times, backend


def timed_rep(workload: Workload, inputs: Path, out: Path, log: Path, ops: Ops,
              spans_dir: Path | None = None, run_id: str = ""):
    """One repetition of the timed phase; returns (wall, procs, lines, digest)."""
    out.mkdir()
    procs = []
    started = time.perf_counter()
    for i, (stage, args) in enumerate(workload.steps(inputs, out)):
        argv = (cli_argv(args) if spans_dir is None
                else traced_argv(spans_dir / f"{i}-{stage}.json", run_id, args))
        proc = run_proc(stage, argv, log)
        procs.append(proc)
        ops.record(f"{stage} process", proc.code == 0, f"exit {proc.code}")
        if proc.code != 0:
            break
    wall = time.perf_counter() - started
    try:
        results = workload.check(inputs, out)
    except (OSError, KeyError, ValueError) as exc:
        results = [("outputs readable", False, f"{type(exc).__name__}: {exc}")]
    for name, ok, detail in results:
        ops.record(name, ok, detail)
    corpus = workload.corpus(inputs, out)
    lines = checks.count_lines(corpus) if corpus.is_file() else 0
    digest = checks.tree_digest(out)
    shutil.rmtree(out)
    return wall, procs, lines, digest


def traced_synth(workload: Workload, inputs: Path, spans_dir: Path, run_id: str,
                 log: Path, ops: Ops) -> None:
    """Trace the set-up synth once, so the synth layer shows on every workload."""
    if workload.synth_config() is None:
        return
    scratch = spans_dir / "setup"
    scratch.mkdir()
    shutil.copy(inputs / "config.json", scratch / "config.json")
    proc = run_proc("synth", traced_argv(spans_dir / "setup-synth.json", run_id,
                                         workload.synth_args(scratch)), log)
    ops.record("traced setup synth", proc.code == 0, f"exit {proc.code}")
    shutil.rmtree(scratch)


def load_traces(spans_dir: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(spans_dir.glob("*.json"))]


# ---------------------------------------------------------------------------
# Records and the result line
# ---------------------------------------------------------------------------

def source_digest() -> str:
    root = SRC / "echoaudit"
    files = sorted(p for p in root.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files:
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if done.returncode != 0:
        return None
    return done.stdout.decode().strip()


def environment(backend: str | None, seed: int) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def check_digest_history(key: str, env: dict, digest: str, ops: Ops) -> None:
    """Same source and backend must give the same artifacts as before.

    A digest that changed together with the source is reported, not gated.
    """
    path = RESULTS_DIR / "digests.json"
    history = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    previous = history.get(key)
    if previous is not None:
        if previous["source_sha256"] == env["source_sha256"]:
            ops.record("digest repeats across runs", previous["digest"] == digest,
                       f"{previous['digest'][:12]} before, {digest[:12]} now")
        elif previous["digest"] != digest:
            print(f"# artifact digest changed with the source: "
                  f"{previous['digest'][:12]} -> {digest[:12]}")
    history[key] = {"digest": digest, "source_sha256": env["source_sha256"]}
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def metric_block(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "echoaudit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no echoaudit source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale])
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stages.log"
    ops = Ops()
    run_id = f"{workload.name}-{args.seed}-{time.time_ns()}"
    try:
        inputs, setup_times, backend = setup(workload, work, log, ops)
        walls, traced_walls, rss, rates, digests = [], [], [], [], []
        stages, layer, largest = [], [], []
        rep = 0
        started = time.perf_counter()
        while rep == 0 or time.perf_counter() - started < args.seconds:
            wall, procs, lines, digest = timed_rep(
                workload, inputs, work / f"rep{rep}", log, ops)
            walls.append(wall)
            rss.append(max(p.rss_mb for p in procs))
            stages.append([vars(p) for p in procs])
            rates.append(lines / wall)
            digests.append(digest)
            if args.trace:
                spans_dir = work / f"spans{rep}"
                spans_dir.mkdir()
                traced_synth(workload, inputs, spans_dir, run_id, log, ops)
                traced_wall, _, _, traced_digest = timed_rep(
                    workload, inputs, work / f"traced{rep}", log, ops,
                    spans_dir, run_id)
                traced_walls.append(traced_wall)
                digests.append(traced_digest)
                traces = load_traces(spans_dir)
                layer.append(tracer.layer_metrics(traces))
                largest.append(tracer.largest_self_time(traces))
            rep += 1
        if ops.notes and log.is_file():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(backend, args.seed)
    ops.record("digest repeats within run", len(set(digests)) == 1,
               f"{len(set(digests))} distinct artifact digests")
    RESULTS_DIR.mkdir(exist_ok=True)
    check_digest_history(f"{workload.name}|{args.scale}|{args.seed}|{backend}",
                         env, digests[0], ops)

    if args.trace:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layer]
        ops.record("trace counts repeat", all(c == counts[0] for c in counts),
                   "layer counts differ between traced repetitions")
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        metrics = metric_block(spec["per_layer"], values)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "records_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup_times),
        }
        metrics = metric_block(spec["end_to_end"], values)

    record = {
        "workload": workload.name, "scale": args.scale, "trace": args.trace,
        "environment": env, "artifact_sha256": digests[0],
        "repetitions": len(walls), "wall_s": walls, "setup_s": setup_times,
        "processes": stages,
        "attempted": ops.attempted, "failed": ops.failed,
        "error_rate": ops.failed / ops.attempted, "failures": ops.notes,
        "largest_self_time": largest, "metrics": metrics,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n",
                                    encoding="utf-8")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {len(walls)} repetition(s), wall_s {walls}, "
          f"error_rate {record['error_rate']:.4g}, artifacts {digests[0][:16]}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
