#!/usr/bin/env python3
"""Function-level reach report: which ``src/repro`` functions anything but tier-1 enters.

Usage::

    python benchmarks/reach.py [REV] [-o FILE]

The probe builds ``REV`` (default ``HEAD``) with ``git archive`` into a
temporary directory and runs every driver there, so the paper benches'
rewrites of ``benchmarks/reports/*.txt`` land in the copy.  The drivers
are:

- the four workloads of ``benchmarks/e2e/run.py``, each with ``--trace 0``
  and ``--trace 1``;
- every CLI command CI runs, every other verb, a campaign whose one cell
  times out with ``profile`` and ``review`` of it, and the
  ``serve-metrics`` endpoints;
- every ``examples/*.py``;
- the paper benches, ``pytest benchmarks --ignore=benchmarks/e2e
  --benchmark-disable``.  pytest-benchmark switches ``sys.settrace`` off
  around a timed call, which would hide everything a bench runs inside
  ``benchmark(...)``; disabled, it calls the target once with the hook on.

Tier-1 (``pytest tests``) runs last, on its own, for the contrast.

The hook is a ``sitecustomize`` module first on ``PYTHONPATH``, so spawned
campaign workers and CLI subprocesses are traced too.  It installs a global
``sys.settrace``/``threading.settrace`` function that records the code
object of each frame it is called for and returns ``None``, so no line
events fire: the probe is function level, and tier-1 takes 131 s under it
against 71 s without on a 2-core x86-64 host.  Each process writes its set at exit, including through
``os._exit``; a forked child starts from an empty set.  The whole probe
shares one fresh ``REPRO_CACHE_DIR``, since a warm self-play cache would
hide the code that fills it.

To probe uncommitted work, pass ``$(git stash create)``; the report's
``src_tree`` (``git rev-parse REV:src``) matches the commit that lands it.

The report (sorted JSON) names the revision and, per module, the functions
no driver enters: ``unreached`` (nothing enters them) and ``tier1_only``
(only tier-1 does), as ``[qualname, first line, lines]``.  A function
nested in a listed one is not listed again, and the line totals count each
source line once.  The full run takes about 25 minutes on that host.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import types
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("vision_ttt", "seq_ttt", "smallstep_campaign", "serve_forward")

HOOK = '''\
import atexit, json, os, sys, threading

_ROOT = {root!r}
_OUT = {out!r}
_seen = {{}}


def _enter(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code


def _dump():
    hits = sorted({{(os.path.relpath(c.co_filename, _ROOT), c.co_firstlineno,
                     getattr(c, "co_qualname", c.co_name))
                    for c in list(_seen.values()) if c.co_filename.startswith(_ROOT)}})
    with open(os.path.join(_OUT, f"{{os.getpid()}}-{{id(hits)}}.json"), "w") as fh:
        json.dump(hits, fh)


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
os.register_at_fork(after_in_child=_seen.clear)
atexit.register(_dump)
threading.settrace(_enter)
sys.settrace(_enter)
'''

# (argv after `python -m repro`, extra env); run in order in one work dir.
CLI_COMMANDS = [
    (["table1"], {}),
    (["table1", "--json"], {}),
    (["hp-table"], {}),
    (["simulate"], {}),
    (["campaign", "recommendation", "reinforcement", "--seeds", "3", "--jobs", "2",
      "--save", "camp", "--submitter", "ci-smoke"], {}),
    (["campaign", "recommendation", "reinforcement", "--seeds", "3",
      "--resume", "camp", "--submitter", "ci-smoke"], {}),
    (["profile", "camp/ci-smoke", "--series"], {}),
    (["report", "camp/ci-smoke"], {}),
    (["review", "camp/ci-smoke"], {}),
    (["trace", "camp/ci-smoke/results/ci-smoke-system/recommendation/result_0.txt"], {}),
    (["monitor", "camp"], {}),
    (["alerts", "camp"], {}),
    (["profile", "camp"], {}),
    (["bench-kernels", "--smoke", "-o", "fresh/BENCH_kernels.json"], {}),
    (["loadgen", "--smoke", "-o", "fresh/BENCH_loadgen.json"], {}),
    (["campaign", "recommendation", "reinforcement", "--seeds", "3", "--jobs", "2",
      "--bench", "fresh/BENCH_campaign.json"], {}),
    *((["bench-diff", f"fresh/BENCH_{b}.json", f"../tree/benchmarks/reports/BENCH_{b}.json"], {})
      for b in ("kernels", "loadgen", "campaign")),
    (["campaign", "recommendation", "--seeds", "1", "--save", "prof",
      "--trace", "prof/trace.json"], {"REPRO_PROFILE": "full"}),
    (["campaign", "recommendation", "--seeds", "1", "--resume", "prof",
      "--trace", "prof/resumed-trace.json"], {}),
    (["profile", "prof"], {}),
    (["profile", "prof/jobs/recommendation/seed_0.txt", "--json"], {}),
    (["campaign", "recommendation", "--seeds", "2", "--save", "smoke-campaign",
      "--submitter", "serve-smoke"], {}),
    (["alerts", "smoke-campaign"], {}),
    # The failure path: the deadline is checked at each epoch start, so the
    # one cell times out before its first epoch, every time.
    (["campaign", "recommendation", "--seeds", "1", "--timeout", "1e-9", "--retries", "0",
      "--save", "timed-out"], {}),
    (["profile", "timed-out"], {}),
    (["review", "timed-out"], {}),
]
ENDPOINTS = ("/metrics", "/api/campaigns", "/api/campaigns/smoke-campaign/jobs",
             "/api/runs/smoke-campaign/recommendation/0/series", "/api/alerts", "/events")


def _run(name: str, cmd: list[str], cwd: Path, env: dict, log: Path) -> dict:
    start = time.perf_counter()
    with open(log, "a") as fh:
        fh.write(f"$ {' '.join(cmd)}\n")
        fh.flush()
        code = subprocess.run(cmd, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT).returncode
    print(f"  {name}: exit {code} in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return {"name": name, "command": " ".join(cmd[1:]), "exit": code}


def _serve(cwd: Path, env: dict) -> dict:
    """`serve-metrics` on an ephemeral port: scrape every endpoint, then SIGINT."""
    cmd = [sys.executable, "-u", "-m", "repro", "serve-metrics", ".", "--port", "0"]
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        url = proc.stdout.readline().split(" on ", 1)[1].split()[0]
        for path in ENDPOINTS:
            with urllib.request.urlopen(url + path, timeout=60) as resp:
                resp.readline() if path == "/events" else resp.read()
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=60)
    print(f"  serve-metrics: exit {code}", file=sys.stderr)
    return {"name": "serve-metrics", "command": " ".join(cmd[3:]) + " + " + " ".join(ENDPOINTS),
            "exit": code}


def run_drivers(tree: Path, env: dict, log: Path) -> list[dict]:
    py = sys.executable
    done = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done.append(_run(f"e2e {workload} --trace {trace}",
                             [py, "benchmarks/e2e/run.py", "--workload", workload,
                              "--seed", "0", "--trace", trace], tree, env, log))
    work = tree.parent / "cli"
    (work / "fresh").mkdir(parents=True)
    for argv, extra in CLI_COMMANDS:
        done.append(_run(f"repro {argv[0]}", [py, "-m", "repro", *argv], work,
                         {**env, **extra}, log))
    done.append(_serve(work, env))
    for script in sorted((tree / "examples").glob("*.py")):
        name = f"examples/{script.name}"
        done.append(_run(name, [py, name], tree, env, log))
    done.append(_run("paper benches", [py, "-m", "pytest", "benchmarks",
                                       "--ignore=benchmarks/e2e", "--benchmark-disable",
                                       "-q", "-p", "no:cacheprovider"], tree, env, log))
    return done


def _functions(src: Path) -> dict[tuple[str, int, str], int]:
    """Every code object under ``src/repro`` but module bodies -> its line span.

    A span runs to the last line of the code object or of any code nested in
    it, so a class covers its methods' bodies.
    """
    found = {}

    def visit(rel: str, code: types.CodeType) -> int:
        last = max((line for _, _, line in code.co_lines() if line is not None),
                   default=code.co_firstlineno)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                last = max(last, visit(rel, const))
        if code.co_name != "<module>":
            key = (rel, code.co_firstlineno, getattr(code, "co_qualname", code.co_name))
            found[key] = last - code.co_firstlineno + 1
        return last

    for path in sorted((src / "repro").rglob("*.py")):
        visit(path.relative_to(src).as_posix(), compile(path.read_text(), str(path), "exec"))
    return found


def _hits(out: Path) -> set[tuple[str, int, str]]:
    return {tuple(hit) for f in out.glob("*.json") for hit in json.loads(f.read_text())}


def _listing(keys: set, spans: dict) -> tuple[list, int]:
    """Outermost entries as ``[qualname, line, lines]`` and the distinct lines they cover."""
    rows, covered, end = [], set(), 0
    for key in sorted(keys, key=lambda k: (k[1], -spans[k])):
        _, line, name = key
        span = spans[key]
        covered.update(range(line, line + span))
        if line + span - 1 <= end:
            continue
        rows.append([name, line, span])
        end = line + span - 1
    return rows, len(covered)


def build_report(spans: dict, reached: set, tier1: set, commit: str, src_tree: str,
                 drivers: list[dict]) -> dict:
    modules, totals = {}, {"functions": len(spans), "tier1_only_lines": 0,
                           "unreached_lines": 0, "tier1_only": 0, "unreached": 0}
    by_module: dict[str, list] = {}
    for key in spans:
        by_module.setdefault(key[0], []).append(key)
    for module, keys in sorted(by_module.items()):
        entry = {"functions": len(keys)}
        for kind, chosen in (("tier1_only", {k for k in keys if k in tier1 and k not in reached}),
                             ("unreached", {k for k in keys if k not in tier1 and k not in reached})):
            rows, lines = _listing(chosen, spans)
            entry[kind], entry[f"{kind}_lines"] = rows, lines
            totals[kind] += len(chosen)
            totals[f"{kind}_lines"] += lines
        modules[module] = entry
    return {"what": "functions of src/repro that no driver enters, per module "
                    "(benchmarks/reach.py)",
            "commit": commit, "src_tree": src_tree, "python": sys.version.split()[0],
            "drivers": drivers, "totals": totals, "modules": modules}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to probe")
    parser.add_argument("-o", "--out", type=Path,
                        default=ROOT / "benchmarks" / "reports" / "reach.json")
    args = parser.parse_args()
    commit, src_tree = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", args.rev, f"{args.rev}:src"], check=True,
        capture_output=True, text=True).stdout.split()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        src = tree / "src"
        (tmp / "cache").mkdir()
        base = {k: v for k, v in os.environ.items()
                if not k.startswith("REPRO_") and k != "PYTHONPATH"}
        base["REPRO_CACHE_DIR"] = str(tmp / "cache")
        envs = {}
        for group in ("drivers", "tier1"):
            (tmp / group / "hits").mkdir(parents=True)
            (tmp / group / "sitecustomize.py").write_text(
                HOOK.format(root=str(src), out=str(tmp / group / "hits")))
            envs[group] = {**base, "PYTHONPATH": f"{tmp / group}{os.pathsep}{src}"}
        log = tmp / "drivers.log"
        print(f"probing {commit[:12]} in {tree}", file=sys.stderr)
        drivers = run_drivers(tree, envs["drivers"], log)
        drivers.append(_run("tier-1", [sys.executable, "-m", "pytest", "tests", "-q",
                                       "-p", "no:cacheprovider"],
                            tree, envs["tier1"], tmp / "tier1.log"))
        report = build_report(_functions(src), _hits(tmp / "drivers" / "hits"),
                              _hits(tmp / "tier1" / "hits"), commit, src_tree, drivers)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    t = report["totals"]
    print(f"wrote {args.out}: {t['functions']} functions, {t['tier1_only']} tier-1-only "
          f"({t['tier1_only_lines']} lines), {t['unreached']} unreached "
          f"({t['unreached_lines']} lines)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
