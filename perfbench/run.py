#!/usr/bin/env python3
"""careertrace benchmark: the real CLI on fixed-seed synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 30 --trace 0

One client, closed loop: each iteration runs the workload's commands one
after another, each as a fresh interpreter calling ``careertrace.cli.run``,
and the next iteration starts when the last command has exited. With
``--trace 0`` the run reports end-to-end metrics from those processes,
scaled by speed probes run between them (see PROBE). With
``--trace 1`` it runs the same commands in this process instead, alternating
an untraced iteration with one where every layer's entry points record
spans, and reports per-layer metrics. Every iteration's output tables and
manifests are checked against the digests pinned for the seed in
``pins.json`` (or, for a seed without pins, against the run's first
iteration). The last line of standard output is one JSON object.

    python3 perfbench/run.py --pin 0-19

re-records ``pins.json`` for the listed seeds; do that only when a change
is meant to alter the corpora or the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = BENCH / "_work"
PINS = BENCH / "pins.json"
SETUP_RESULT = "setup.json"
# set-up is short and the machine's speed varies, so a run sets up at least
# SETUPS times and keeps going until SETUP_S seconds have passed
SETUPS = 5
SETUP_S = 5.0
# every run must exit within 180 s: no iteration starts that would, at the
# last one's pace, end after STOP_S, and a command still running at KILL_S
# is killed and counted as failed
STOP_S = 120.0
KILL_S = 170.0
# the seed to tune a change on, and the one kept back to confirm its claim
PRIMARY_SEED = 1
HELD_OUT_SEED = 7919
RUN_CLI = "import sys; from careertrace.cli import run; sys.exit(run(sys.argv[1:]))"
# The speed probe: a fresh interpreter doing a fixed piece of work in the
# standard library only, with no careertrace code, so no change to the program
# moves it. It builds, serializes, parses, groups, sorts and hashes rows, the
# kinds of work the commands do. Every command and every set-up is timed
# against the mean of the probes run just before and just after it, so a
# stretch where the shared host runs the benchmark slower slows both and
# cancels out of their ratio.
PROBE = """
import hashlib, json
rows = [{"id": "a%05d" % i, "year": 1950 + i % 68, "c": ("USA", "CHN", "DEU")[i % 3], "w": i / 7.0}
        for i in range(3000)]
back = [json.loads(line) for line in "\\n".join(json.dumps(r) for r in rows).split("\\n")]
groups = {}
for r in back:
    groups.setdefault((r["c"], r["year"]), []).append(r["w"])
table = sorted((k, sum(v) / len(v)) for k, v in groups.items())
hashlib.sha256("".join("%s,%d,%.6f" % (k[0], k[1], v) for k, v in table).encode()).hexdigest()
"""
# Time metrics are reported in seconds at the speed where the probe takes
# PROBE_REF_S, about its wall time on a quiet 2-vCPU Xeon virtual machine.
# The unscaled figures go to standard error.
PROBE_REF_S = 0.1
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The run cannot measure what it was asked to; no result is printed."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_digest(data: bytes) -> str:
    """Digest of a manifest without its timestamp; the scheme path is reduced to
    its file name, because the package's location differs between checkouts."""
    try:
        obj = json.loads(data)
    except ValueError:
        return sha256(data)
    obj.pop("timestamp", None)
    inputs = obj.get("inputs")
    if isinstance(inputs, dict) and isinstance(inputs.get("scheme"), str):
        inputs["scheme"] = Path(inputs["scheme"]).name
    return sha256(json.dumps(obj, sort_keys=True).encode())


def is_manifest(path: Path) -> bool:
    return path.name == "manifest.json" or path.name.endswith(".manifest.json")


def digest_outputs(out: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[path.relative_to(out).as_posix()] = (
                manifest_digest(data) if is_manifest(path) else sha256(data)
            )
    return digests


def cache_outcomes(out: Path) -> tuple[int, int]:
    """(hits, misses) over the stages of every manifest the commands wrote."""
    hits = misses = 0
    for path in out.rglob("*manifest.json"):
        try:
            stages = json.loads(path.read_bytes()).get("stages", [])
        except ValueError:
            continue
        for stage in stages:
            hits += stage.get("cache") == "hit"
            misses += stage.get("cache") == "miss"
    return hits, misses


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass(frozen=True)
class Process:
    code: int
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


class Run:
    """One benchmark run of one workload and seed inside a private work directory."""

    def __init__(self, workload, seed: int, scheme, pin: dict | None, work: Path):
        self.workload = workload
        self.seed = seed
        self.scheme = scheme
        self.pin = pin
        self.work = work
        self.started = time.perf_counter()
        self.reference: dict[str, str] | None = pin["outputs"] if pin else None
        self.attempted = 0
        self.failed = 0
        self.records = 0
        self.setup_s: list[float] = []
        self.setup_scaled: list[float] = []
        self.generate_s: list[float] = []

    # -- set-up and checks -------------------------------------------------

    def set_up(self, setups: int = SETUPS, seconds: float = SETUP_S) -> None:
        """Build the corpus file several times, each in a fresh interpreter."""
        from workloads import CORPUS

        digests = set()
        start = time.perf_counter()
        probes = [self.probe().wall_s]
        argv = [sys.executable, str(BENCH / "workloads.py"), self.workload.name, str(self.seed),
                CORPUS, SETUP_RESULT]
        while len(self.setup_s) < setups or time.perf_counter() - start < seconds:
            proc = self.spawn(argv)
            if proc.code != 0:
                raise BenchError(f"{self.workload.name}: set-up failed: {proc.stderr.strip()}")
            result = json.loads((self.work / SETUP_RESULT).read_text(encoding="utf-8"))
            took, generate_s, digest, self.records = (
                result[k] for k in ("seconds", "generate_s", "sha256", "records")
            )
            probes.append(self.probe().wall_s)
            self.setup_s.append(took)
            self.setup_scaled.append(took / (probes[-2] + probes[-1]) * 2 * PROBE_REF_S)
            self.generate_s.append(generate_s)
            digests.add(digest)
        if len(digests) != 1:
            raise BenchError(f"{self.workload.name}: corpus generation is not deterministic")
        self.corpus_sha256 = digests.pop()
        if self.pin and (self.pin["corpus_sha256"], self.pin["records"]) != (
            self.corpus_sha256, self.records
        ):
            raise BenchError(
                f"{self.workload.name} seed {self.seed}: corpus has {self.records} records, "
                f"sha256 {self.corpus_sha256}; pinned {self.pin['records']}, "
                f"{self.pin['corpus_sha256']}. The generator changed, so this is a different load."
            )

    def oracle_check(self) -> bool:
        """Run a small corpus of the workload's scenario through the brute-force oracle."""
        from equivalence import compare_pipeline_to_oracle
        from workloads import ORACLE_AUTHORS

        corpus, _ = self.workload.generate(self.seed, self.scheme, ORACLE_AUTHORS)
        try:
            compare_pipeline_to_oracle(list(corpus.dump_lines()), self.scheme)
        except AssertionError as exc:
            print(f"perfbench: oracle self-check failed: {exc!r}", file=sys.stderr)
            return False
        return True

    def _reset(self) -> None:
        from workloads import CACHE, OUT

        for name in (OUT, CACHE):
            shutil.rmtree(self.work / name, ignore_errors=True)

    def _owner(self, rel: str) -> int:
        """Index of the command that writes the output file ``rel``."""
        best, best_len = len(self.workload.commands) - 1, -1
        for i, cmd in enumerate(self.workload.commands):
            out = cmd.output
            if out and len(out) > best_len and (
                rel == out or rel.startswith(out + "/") or rel == out + ".manifest.json"
            ):
                best, best_len = i, len(out)
        return best

    def check(self, results: list[tuple[int | None, str]]) -> None:
        """Count the iteration's commands and the ones that failed."""
        from workloads import OUT

        outputs = digest_outputs(self.work / OUT)
        bad = {
            i for i, (code, stderr) in enumerate(results)
            if code != 0 or "Traceback (most recent call last)" in stderr
        }
        if self.reference is None:
            self.reference = outputs
        for rel in outputs.keys() | self.reference.keys():
            if outputs.get(rel) != self.reference.get(rel):
                print(f"perfbench: {self.workload.name}: output {rel} differs from the reference",
                      file=sys.stderr)
                bad.add(self._owner(rel))
        self.attempted += len(results)
        self.failed += len(bad)

    def time_left(self, last_iteration_s: float) -> bool:
        return time.perf_counter() - self.started + last_iteration_s < STOP_S

    # -- iterations --------------------------------------------------------

    def spawn(self, argv: list[str]) -> Process:
        """Run ``argv`` to its end in the work directory, killed at KILL_S."""
        with open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(max(0.0, self.started + KILL_S - start), proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return Process(proc.returncode, err.read().decode("utf-8", "replace"), wall_s,
                           usage.ru_utime + usage.ru_stime, usage.ru_maxrss)

    def probe(self) -> Process:
        probe = self.spawn([sys.executable, "-c", PROBE])
        if probe.code != 0:
            raise BenchError(f"the speed probe failed: {probe.stderr.strip()}")
        return probe

    def iterate_subprocess(self) -> dict:
        """Each command as a fresh interpreter between two speed probes; wall, CPU
        and peak RSS from wait4, with the probes' wall and CPU time."""
        self._reset()
        commands, probes = [], [self.probe()]
        for cmd in self.workload.commands:
            commands.append(self.spawn([sys.executable, "-c", RUN_CLI, *cmd.argv]))
            probes.append(self.probe())
        self.check([(c.code, c.stderr) for c in commands])
        return {"commands": commands, "probes": probes}

    def iterate_inprocess(self, tracer=None) -> float:
        """All commands through careertrace.cli.run in this process; returns wall seconds."""
        from careertrace.cli import run

        self._reset()
        results = []
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            start = time.perf_counter()
            for cmd in self.workload.commands:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code = tracer.run_command(run, list(cmd.argv)) if tracer else run(list(cmd.argv))
                    except Exception:  # noqa: BLE001 - an escaped exception is a failed command
                        traceback.print_exc()
                        code = None
                results.append((code, err.getvalue()))
            wall_s = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        self.check(results)
        return wall_s

    def iterate_traced(self) -> dict:
        """An in-process iteration with every layer's entry points recording spans."""
        from tracer import Tracer
        from workloads import CACHE, OUT

        tracer = Tracer()
        tracer.install()
        try:
            wall_s = self.iterate_inprocess(tracer)
        finally:
            tracer.uninstall()
        hits, misses = cache_outcomes(self.work / OUT)
        cache = self.work / CACHE
        counts = {
            **tracer.counts,
            "cli.cache_hits": hits,
            "cli.cache_misses": misses,
            "cli.cache_bytes": tree_bytes(cache) if cache.exists() else 0,
        }
        return {"wall_s": wall_s, "times": tracer.self_times(), "counts": counts, "tracer": tracer}

    # -- the two kinds of run ----------------------------------------------

    def measure(self, seconds: float) -> dict:
        samples = []
        start = time.perf_counter()
        while True:
            samples.append(self.iterate_subprocess())
            elapsed = time.perf_counter() - start
            last_s = sum(p.wall_s for p in samples[-1]["commands"] + samples[-1]["probes"])
            if elapsed >= seconds or not self.time_left(last_s):
                break

        def scaled(field: str) -> float:
            """Sum over the commands of the median over iterations of each
            command's time over its probes' mean, in seconds at the reference speed."""
            def ratio(s: dict, i: int) -> float:
                probes = getattr(s["probes"][i], field) + getattr(s["probes"][i + 1], field)
                return getattr(s["commands"][i], field) / probes * 2

            return PROBE_REF_S * sum(statistics.median(ratio(s, i) for s in samples)
                                     for i in range(len(self.workload.commands)))

        metrics = {
            "wall_s": scaled("wall_s"),
            "cpu_s": scaled("cpu_s"),
            "peak_rss_mb": statistics.median(
                max(c.maxrss_kb for c in s["commands"]) for s in samples
            ) / 1024.0,
            "setup_s": statistics.median(self.setup_scaled),
        }
        for name in ("wall_s", "cpu_s"):
            print(f"perfbench: {self.workload.name} seed {self.seed}: {name} unscaled "
                  + " ".join(f"{sum(getattr(c, name) for c in s['commands']):.4f}" for s in samples)
                  + "; probes " + " ".join(
                      f"{statistics.median(getattr(p, name) for p in s['probes']):.4f}"
                      for s in samples), file=sys.stderr)
        print(f"perfbench: {self.workload.name} seed {self.seed}: setup_s unscaled "
              + " ".join(f"{t:.4f}" for t in self.setup_s), file=sys.stderr)
        print(f"perfbench: {self.workload.name} seed {self.seed}: {self.records} records, "
              f"{len(samples)} iterations, {len(self.setup_s)} set-ups", file=sys.stderr)
        return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}

    def trace(self, seconds: float) -> tuple[dict, bool]:
        """Per-layer metrics and whether their counts repeated exactly."""
        from tracer import COMMAND, LAYERS

        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            untraced.append(self.iterate_inprocess())
            traced.append(self.iterate_traced())
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or not self.time_left(untraced[-1] + traced[-1]["wall_s"]):
                break

        first = traced[0]["tracer"]
        missing = first.missing_layers()
        missing_counts = first.missing_counts()
        if missing or missing_counts:
            print(f"perfbench: missing layers {sorted(missing)}, counts {sorted(missing_counts)}",
                  file=sys.stderr)
        counts = traced[0]["counts"]
        counts_ok = all(t["counts"] == counts for t in traced)
        if self.pin:
            changed = {key: (counts.get(key, 0), pinned) for key, pinned in self.pin["counts"].items()
                       if key not in missing_counts and counts.get(key, 0) != pinned}
            if changed:
                print(f"perfbench: counts differ from the pinned ones (got, pinned): {changed}",
                      file=sys.stderr)
                counts_ok = False

        def timing(layer: str) -> float | None:
            if layer in missing:
                return None
            return statistics.median(t["times"][layer] for t in traced)

        def count(key: str) -> int | None:
            return None if key in missing_counts else counts.get(key, 0)

        values: dict[str, tuple[float | None, str]] = {}
        for layer in LAYERS:
            values[f"{layer}_s"] = (timing(layer), "s")
        values["cli.self_s"] = (statistics.median(t["times"][COMMAND] for t in traced), "s")
        for key in ("corpus.records", "corpus.parse_calls", "timeline.positions",
                    "timeline.tied_positions", "mobility.moves", "mobility.state_rows",
                    "stocks.grid_cells", "stocks.cells", "indicators.rows",
                    "cli.cache_hits", "cli.cache_misses", "cli.cache_bytes"):
            values[key] = (count(key), "bytes" if key == "cli.cache_bytes" else "count")
        lookups = counts["cli.cache_hits"] + counts["cli.cache_misses"]
        values["cli.cache_hit_ratio"] = (counts["cli.cache_hits"] / lookups if lookups else 0.0, "ratio")
        # the long-span property: author-year grid cells per timeline position
        grid, positions = count("stocks.grid_cells"), count("timeline.positions")
        per_position = None
        if grid is not None and positions is not None:
            calls = counts.get("stocks.statuses_calls", 0), counts.get("timeline.calls", 0)
            per_position = (grid / calls[0]) / (positions / calls[1]) if all(calls) else 0.0
        values["stocks.grid_per_position"] = (per_position, "ratio")
        values["synth.generate_s"] = (statistics.median(self.generate_s), "s")
        overhead = statistics.median(t["wall_s"] for t in traced) / statistics.median(untraced) - 1.0
        values["trace.overhead_frac"] = (overhead, "ratio")

        WORK_ROOT.mkdir(exist_ok=True)
        spans_path = WORK_ROOT / f"spans-{self.workload.name}-{self.seed}.json"
        spans_path.write_text(json.dumps([t["tracer"].spans for t in traced]), encoding="utf-8")
        print(f"perfbench: {self.workload.name} seed {self.seed}: wall_s untraced "
              + " ".join(f"{w:.3f}" for w in untraced) + ", traced "
              + " ".join(f"{t['wall_s']:.3f}" for t in traced)
              + f"; spans in {spans_path.relative_to(ROOT)}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
        return metrics, counts_ok


# -- pins ------------------------------------------------------------------

def load_pins() -> dict:
    if not PINS.exists():
        return {"workloads": {}}
    return json.loads(PINS.read_text(encoding="utf-8"))


def workload_pins(pins: dict, workload) -> dict:
    """The workload's pinned seeds; refuses pins recorded for another definition."""
    entry = pins["workloads"].get(workload.name)
    if entry is None:
        return {}
    if entry["scenario"] != json.loads(json.dumps(workload.describe())):
        raise BenchError(f"{PINS.name} was recorded for another definition of {workload.name}; "
                         "re-record it with --pin")
    return entry["seeds"]


def pin(workloads: list, seeds: list[int], scheme) -> None:
    pins = load_pins()
    pins.update(primary_seed=PRIMARY_SEED, held_out_seed=HELD_OUT_SEED)
    for workload in workloads:
        entry = pins["workloads"].get(workload.name)
        scenario = json.loads(json.dumps(workload.describe()))
        if entry is None or entry["scenario"] != scenario:
            entry = pins["workloads"][workload.name] = {"scenario": scenario, "seeds": {}}
        for seed in seeds:
            with work_dir(workload.name) as work:
                run = Run(workload, seed, scheme, None, work)
                run.set_up(setups=1, seconds=0.0)
                traced = run.iterate_traced()
                if run.failed:
                    raise BenchError(f"{workload.name} seed {seed}: a command failed while pinning")
                entry["seeds"][str(seed)] = {
                    "records": run.records, "corpus_sha256": run.corpus_sha256,
                    "outputs": run.reference, "counts": traced["counts"],
                }
            print(f"perfbench: pinned {workload.name} seed {seed}: {run.records} records",
                  file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@contextlib.contextmanager
def work_dir(name: str):
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _terminate(signum: int, _frame) -> None:
    # unwind, so that a running command is killed and the work directory removed
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (all workloads with --pin)")
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS", help="re-record pins.json for seeds like 0-9,7919")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "careertrace" / "cli.py").is_file():
        print(f"perfbench: error: no careertrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))
    from careertrace.corpus import default_scheme
    from workloads import WORKLOADS

    scheme = default_scheme()
    try:
        if args.pin:
            chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
            pin(chosen, parse_seeds(args.pin), scheme)
            return 0
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        seed_pin = workload_pins(load_pins(), workload).get(str(args.seed))
        if seed_pin is None:
            print(f"perfbench: {workload.name} seed {args.seed} has no pinned digests; "
                  "outputs are checked against the run's first iteration", file=sys.stderr)
        with work_dir(workload.name) as work:
            run = Run(workload, args.seed, scheme, seed_pin, work)
            run.set_up()
            correct = run.oracle_check()
            if args.trace:
                metrics, counts_ok = run.trace(args.seconds)
                correct = correct and counts_ok
            else:
                metrics = run.measure(args.seconds)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
