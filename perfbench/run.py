#!/usr/bin/env python3
"""The repository benchmark: four gcmodel workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload explore-2mut --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15    # every workload, both modes

One run builds bin/gcmodel.exe and perfbench/layers.exe with dune, runs
the workload's set-up several times, then repeats the workload's timed
command as a child process until --seconds have been spent.  Every
repetition's answer is checked against the workload's pinned answer; a
crash, a kill or a wrong answer counts as failed and contributes no time.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
reports the per-layer metrics: it times the untraced command again (for
the OCaml GC exit statistics and as the base of the engine residual), then
runs one traced replay (perfbench/layers.exe) that must reproduce the same
answer.  The harness workload's layer metrics come from the latency
section the harness already reports.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
host and provenance.  See perfbench/README.md for the workloads, the
metric-to-layer map and the host's noise.
"""

import argparse
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

GCMODEL = os.path.join("_build", "default", "bin", "gcmodel.exe")
LAYERS = os.path.join("_build", "default", "perfbench", "layers.exe")
OUT = ".perfbench-out"  # scratch outputs, inside the checkout
CHILD_TIMEOUT_S = 120
MIN_REPS = 3

# The host's speed drifts by up to 70% over minutes (see README.md), so
# every end-to-end time is normalized by a probe: `layers.exe calibrate`,
# a fixed workload that uses none of the checker's code, timed before and
# after each repetition.  A normalized time is the measured time scaled
# by PROBE_REF_S / (mean of the two probe times), i.e. the time on a host
# where the probe takes PROBE_REF_S.
PROBE = [LAYERS, "calibrate"]
PROBE_ANSWER = "calibrate 537630039853387"
PROBE_REF_S = 0.6

# -- workloads ---------------------------------------------------------------

EXPLORE_FLAGS = ["--muts", "2", "--refs", "2", "--ops", "1", "--cycles", "2"]
RECHECK_FLAGS = ["--refs", "2", "--ops", "3", "--cycles", "2"]
WALK_FLAGS = ["--muts", "2", "--refs", "2", "--ops", "2", "--cycles", "1000"]
WALK_STEPS = 200_000
WALK_RUN_LENGTH = 5_000  # Random_walk.run's restart length
HARNESS_FLAGS = ["--muts", "1", "--slots", "65536"]
HARNESS_DURATION_S = 2.0

WORKLOADS = {
    "explore-2mut": {
        "kind": "explore",
        "pinned": {"verdict": "SAFE", "states": 61070, "transitions": 166678, "depth": 249},
        "setup_reps": 25,
    },
    "recheck-1mut": {
        "kind": "recheck",
        "pinned": {"verdict": "OK", "states": 104857, "transitions": 237777, "depth": 189},
        "setup_reps": 3,
        "setup_probe_every": 1,  # each certifying set-up is long enough to bracket
    },
    "walk-2mut": {
        "kind": "walk",
        "pinned": {
            "verdict": "SAFE",
            "steps": WALK_STEPS,
            "runs": WALK_STEPS // WALK_RUN_LENGTH,
            "dead_ends": 0,
        },
        "setup_reps": 25,
    },
    "harness-1mut": {
        "kind": "harness",
        "pinned": {"verdict": "SAFE"},
        "setup_reps": 25,
        "fixed_duration": True,  # wall time is the duration, not work: not normalized
    },
}

# -- metrics -----------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "throughput_per_s": "1/s",
}

INVARIANTS = [
    "valid_refs_inv", "no_dangling_access", "free_only_garbage", "worklists_disjoint",
    "valid_W_inv", "tso_ownership", "tso_lock_scope", "gc_fM_coherent", "sys_phase_inv",
    "fA_fM_relation", "no_black_refs_init", "idle_heap_uniform", "marked_insertions",
    "marked_deletions", "reachable_snapshot_inv", "gc_W_empty_mut_inv",
    "weak_tricolor_inv", "strong_tricolor_inv",
]

PER_LAYER = {
    "cimp.steps_calls": "count",
    "cimp.steps_self_s": "s",
    "cimp.successors_per_state": "ratio",
    "cimp.normalize_calls": "count",
    "cimp.normalize_self_s": "s",
    "reduce.successors_self_s": "s",
    "reduce.ample_ratio": "ratio",
    "reduce.canon_state_self_s": "s",
    "fingerprint.calls": "count",
    "fingerprint.self_s": "s",
    "fingerprint.share": "ratio",
    "fingerprint.hash_only_s": "s",
    "invariants.evals": "count",
    "invariants.self_s": "s",
    **{f"invariants.{name}.self_s": "s" for name in INVARIANTS},
    "store.add_calls": "count",
    "store.add_self_s": "s",
    "store.fresh_ratio": "ratio",
    "store.bytes_per_state": "B",
    "store.peak_resident_mb": "MB",
    "engine.frontier_peak": "count",
    "engine.self_s": "s",
    "engine.traced_total_s": "s",
    "engine.residual_s": "s",
    "engine.tracing_overhead_s": "s",
    "certify.load_table_s": "s",
    "certify.validate_s": "s",
    "certify.table_bytes_per_state": "B",
    "ocaml_gc.alloc_mwords": "Mwords",
    "ocaml_gc.promoted_mwords": "Mwords",
    "ocaml_gc.major_collections": "count",
    "ocaml_gc.top_heap_mb": "MB",
    "runtime.gc_cycle_p50_ms": "ms",
    "runtime.gc_cycle_p99_ms": "ms",
    "runtime.gc_cycles_per_s": "1/s",
    "runtime.hs_round_p50_us": "us",
    "runtime.hs_round_p99_us": "us",
    "runtime.barrier_slow_p50_ns": "ns",
    "runtime.barrier_fast_fraction": "ratio",
    "runtime.cas_win_ratio": "ratio",
    "runtime.alloc_p50_ns": "ns",
    "runtime.alloc_p99_ns": "ns",
    "runtime.mark_p50_ms": "ms",
    "runtime.sweep_p50_ms": "ms",
    "runtime.alloc_stalls": "count",
    "host.probe_s": "s",
}

# -- child processes ---------------------------------------------------------


class Child:
    """One finished child process: exit status, wall time, peak RSS, output."""

    def __init__(self, argv, env=None, timeout=CHILD_TIMEOUT_S):
        os.makedirs(OUT, exist_ok=True)
        out_path = os.path.join(OUT, "child.out")
        err_path = os.path.join(OUT, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            # a watchdog kills a child that overruns; wait4 reaps it either way
            killer = threading.Timer(timeout, lambda: os.kill(proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # keep Popen from reaping again
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.out = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            self.err = f.read()

    def last_line(self):
        lines = self.out.strip().splitlines()
        return lines[-1] if lines else ""


def gc_env():
    # OCAMLRUNPARAM=v=0x400 makes the OCaml runtime print its GC counters at exit
    env = dict(os.environ)
    env["OCAMLRUNPARAM"] = "v=0x400"
    return env


def ocaml_gc_stats(stderr):
    stats = {}
    for key in ("allocated_words", "promoted_words", "major_collections", "top_heap_words"):
        m = re.search(rf"^{key}: (\d+)", stderr, re.M)
        if m:
            stats[key] = int(m.group(1))
    return stats


# -- answers -----------------------------------------------------------------

VERDICT = r"(all invariants hold|VIOLATION: \S+)"


def verdict_of(text):
    return "SAFE" if text == "all invariants hold" else text.split(": ", 1)[1]


def parse_answer(kind, child):
    """The answer a timed command printed, or None when it printed none."""
    if child.code != 0:
        return None
    line = child.last_line()
    if kind == "explore":
        m = re.match(rf"states=(\d+) transitions=(\d+) depth=(\d+) deadlocks=\d+( TRUNCATED)? {VERDICT}", line)
        if m and not m.group(4):
            return {"verdict": verdict_of(m.group(5)), "states": int(m.group(1)),
                    "transitions": int(m.group(2)), "depth": int(m.group(3))}
    elif kind == "recheck":
        m = re.match(r"recheck: OK — (\d+) states, (\d+) transitions, max depth (\d+) ", line)
        if m:
            return {"verdict": "OK", "states": int(m.group(1)), "transitions": int(m.group(2)),
                    "depth": int(m.group(3))}
    elif kind == "walk":
        m = re.match(rf"steps=(\d+) runs=(\d+) dead-ends=(\d+) {VERDICT}", line)
        if m:
            return {"verdict": verdict_of(m.group(4)), "steps": int(m.group(1)),
                    "runs": int(m.group(2)), "dead_ends": int(m.group(3))}
    elif kind == "harness":
        m = re.match(r"cycles=(\d+) ops=(\d+) .* (SAFE|UNSAFE: .*)$", line)
        if m:
            return {"verdict": m.group(3), "cycles": int(m.group(1)), "ops": int(m.group(2))}
    return None


def answer_ok(workload, answer):
    if answer is None:
        return False
    pinned = WORKLOADS[workload]["pinned"]
    if any(answer.get(k) != v for k, v in pinned.items()):
        return False
    if WORKLOADS[workload]["kind"] == "harness":
        return answer["cycles"] > 0 and answer["ops"] > 0
    return True


# -- commands ----------------------------------------------------------------


def cert_dir():
    return os.path.join(OUT, "cert-recheck-1mut")


def setup_argv(workload, seed):
    """The workload's set-up command: what must happen before it can be timed."""
    kind = WORKLOADS[workload]["kind"]
    if kind == "explore":
        return [GCMODEL, "dump", *EXPLORE_FLAGS]
    if kind == "walk":
        return [GCMODEL, "dump", *WALK_FLAGS]
    if kind == "recheck":
        return [GCMODEL, "explore", *RECHECK_FLAGS, "--certificate", cert_dir()]
    return [GCMODEL, "harness", *HARNESS_FLAGS, "--seed", str(seed), "--duration", "0"]


def setup_ok(workload, child):
    if child.code != 0:
        return False
    if WORKLOADS[workload]["kind"] == "recheck":
        states = WORKLOADS[workload]["pinned"]["states"]
        return re.search(rf"^certificate: {states} states ", child.out, re.M) is not None
    if WORKLOADS[workload]["kind"] == "harness":
        return parse_answer("harness", child) is not None
    return child.out.strip() != ""


def rep_seed(seed, i):
    """The seed of repetition [i] of a run.  Walk and harness costs depend on
    the seed, so a run spreads its repetitions over many seeds and its
    median does not hinge on one."""
    return seed * 1000 + i


def timed_argv(workload, seed, obs=None):
    kind = WORKLOADS[workload]["kind"]
    if kind == "explore":
        return [GCMODEL, "explore", *EXPLORE_FLAGS]
    if kind == "recheck":
        return [GCMODEL, "recheck", cert_dir()]
    if kind == "walk":
        return [GCMODEL, "walk", *WALK_FLAGS, "--seed", str(seed), "--steps", str(WALK_STEPS)]
    argv = [GCMODEL, "harness", *HARNESS_FLAGS, "--seed", str(seed),
            "--duration", str(HARNESS_DURATION_S)]
    return argv + ([f"--obs=json:{obs}"] if obs else [])


def layers_argv(workload, seed, spans):
    kind = WORKLOADS[workload]["kind"]
    if kind == "explore":
        args = ["explore", *EXPLORE_FLAGS]
    elif kind == "recheck":
        args = ["recheck", *RECHECK_FLAGS, "--dir", cert_dir()]
    else:
        args = ["walk", *WALK_FLAGS, "--seed", str(seed), "--steps", str(WALK_STEPS)]
    return [LAYERS, *args, "--spans", spans]


def throughput(workload, answer, wall_s, scale):
    """Work completed per second, in the workload's own unit, with time
    scaled by [scale] (the probe normalization, 1.0 for raw)."""
    kind = WORKLOADS[workload]["kind"]
    if kind == "harness":
        # mutator ops over the fixed duration
        return answer["ops"] / (HARNESS_DURATION_S * scale)
    return answer["steps" if kind == "walk" else "states"] / (wall_s * scale)


# -- build and provenance ------------------------------------------------------


def build():
    for path in ("dune-project", os.path.join("bin", "gcmodel.ml"), "lib"):
        if not os.path.exists(path):
            sys.exit(f"perfbench: {path} not found; run from the root of a repository checkout")
    # no shared dune cache: the build reads and writes inside the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    res = subprocess.run(["dune", "build", "--root", ".", "bin/gcmodel.exe", "perfbench/layers.exe"],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.exit(f"perfbench: dune build failed (exit {res.returncode})")


def provenance(workload, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    host = json.loads(subprocess.run([LAYERS, "host"], capture_output=True, text=True).stdout)
    commit = None
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "--git-dir", ".git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "recommended_domain_count": host["recommended_domain_count"],
        "cpu_model": cpu,
        "ocaml_version": host["ocaml_version"],
        "git_commit": commit or "unknown (not a git checkout)",
        "note": ("claims that need 4 or more cores remain unverified on this host"
                 if nproc < 4 else ""),
    }


# -- one run -------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


def median(values):
    return statistics.median(values) if values else 0.0


def probe():
    """Seconds the host takes for the fixed probe workload right now."""
    child = Child(PROBE)
    if child.code != 0 or child.last_line() != PROBE_ANSWER:
        sys.exit(f"perfbench: speed probe failed (exit {child.code}): {child.last_line()!r}")
    return child.wall_s


def run_setup(workload, seed, tally):
    """Raw and normalized set-up times of the good repetitions.  Probes
    bracket each group of [setup_probe_every] set-ups (all of them by
    default); a group is normalized by the mean of its two probes."""
    spec = WORKLOADS[workload]
    every = spec.get("setup_probe_every", spec["setup_reps"])
    raw, norm, group = [], [], []
    before = probe()
    for i in range(spec["setup_reps"]):
        if spec["kind"] == "recheck":
            shutil.rmtree(cert_dir(), ignore_errors=True)
        child = Child(setup_argv(workload, seed))
        if tally.record(setup_ok(workload, child)):
            group.append(child.wall_s)
        if (i + 1) % every == 0:
            after = probe()
            raw += group
            norm += [t * 2 * PROBE_REF_S / (before + after) for t in group]
            group, before = [], after
    return raw, norm


def repeat_timed(workload, seed, budget_s, tally, obs=None, on_rep=None):
    """Repeat the timed command between probes until the budget is spent.
    The good repetitions as (child, answer, mean of the probes around it).

    [on_rep] sees each good repetition's child before the next one starts."""
    reps, failures = [], 0
    t0 = time.perf_counter()
    before = probe()
    for i in itertools.count():
        elapsed = time.perf_counter() - t0
        typical = median([c.wall_s + p for c, _, p in reps]) if reps else 0.0
        if len(reps) >= MIN_REPS and elapsed + typical > budget_s:
            break
        if failures > 2 * MIN_REPS and not reps:
            break  # nothing succeeds; stop early
        child = Child(timed_argv(workload, rep_seed(seed, i), obs), env=gc_env())
        answer = parse_answer(WORKLOADS[workload]["kind"], child)
        after = probe()
        if tally.record(answer_ok(workload, answer)):
            reps.append((child, answer, (before + after) / 2))
            if on_rep:
                on_rep(child)
        else:
            failures += 1
        before = after
    return reps


def end_to_end(workload, args, tally):
    """Normalized end-to-end metrics, and the raw measurements behind them."""
    setup_raw, setup_norm = run_setup(workload, args.seed, tally)
    reps = repeat_timed(workload, args.seed, args.seconds, tally)
    if not reps or not setup_raw:
        return None, None
    raw = {
        "wall_s": median([c.wall_s for c, _, _ in reps]),
        "peak_rss_mb": median([c.rss_mb for c, _, _ in reps]),
        "setup_s": median(setup_raw),
        "throughput_per_s": median([throughput(workload, a, c.wall_s, 1.0) for c, a, _ in reps]),
        "probe_s": median([p for _, _, p in reps]),
        "reps": len(reps),
    }
    fixed = WORKLOADS[workload].get("fixed_duration", False)
    norm = {
        "wall_s": raw["wall_s"] if fixed else median([c.wall_s * PROBE_REF_S / p
                                                      for c, _, p in reps]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median(setup_norm),
        "throughput_per_s": median([throughput(workload, a, c.wall_s, PROBE_REF_S / p)
                                    for c, a, p in reps]),
    }
    return norm, raw


def layer_metrics(workload, layers, wall_s):
    """Per-layer metrics from one traced replay (layers.exe's JSON)."""
    L = layers["layers"]
    kind = WORKLOADS[workload]["kind"]

    def self_s(name):
        return L.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return L.get(name, {}).get("calls", 0)

    expanded = layers.get("expanded", layers.get("states", 0))
    full = layers.get("full_successors", 0)
    total = layers["traced_total_s"]
    inv_names = [n for n in L if n.startswith("invariants.")]
    # every span that is neither the engine's own loop nor a reference pass
    layer_self = sum(v["self_s"] for n, v in L.items()
                     if n != "engine" and not n.endswith(".reference"))
    m = {
        "cimp.steps_calls": calls("cimp.steps") + calls("cimp.steps.reference"),
        "cimp.steps_self_s": self_s("cimp.steps") + self_s("cimp.steps.reference"),
        "cimp.successors_per_state": full / expanded if expanded else 0.0,
        "cimp.normalize_calls": calls("cimp.normalize"),
        "cimp.normalize_self_s": self_s("cimp.normalize"),
        "reduce.successors_self_s": self_s("reduce.successors"),
        "reduce.ample_ratio": (layers["ample_successors"] / full
                               if "ample_successors" in layers and full else 0.0),
        "reduce.canon_state_self_s": self_s("reduce.canon_state"),
        "fingerprint.calls": calls("fingerprint"),
        "fingerprint.self_s": self_s("fingerprint"),
        "fingerprint.share": self_s("fingerprint") / total if total else 0.0,
        "fingerprint.hash_only_s": self_s("fingerprint.hash_only.reference"),
        "invariants.evals": sum(calls(n) for n in inv_names),
        "invariants.self_s": sum(self_s(n) for n in inv_names),
        **{f"invariants.{n}.self_s": self_s(f"invariants.{n}") for n in INVARIANTS},
        "store.add_calls": calls("store.add"),
        "store.add_self_s": self_s("store.add"),
        "store.fresh_ratio": (layers["store_fresh"] / layers["store_adds"]
                              if layers.get("store_adds") else 0.0),
        "store.bytes_per_state": (layers["store_capacity_bytes"] / layers["states"]
                                  if kind == "explore" else 0.0),
        "store.peak_resident_mb": layers.get("store_peak_resident_bytes", 0) / 2**20,
        "engine.frontier_peak": layers.get("frontier_peak", 0),
        "engine.self_s": self_s("engine"),
        "engine.traced_total_s": total,
        "engine.residual_s": wall_s - layer_self,
        "engine.tracing_overhead_s": total - wall_s,
        "certify.load_table_s": L.get("certify.load_table.reference", {}).get("total_s", 0.0),
        "certify.validate_s": self_s("certify.validate"),
        "certify.table_bytes_per_state": (layers["table_bytes"] / layers["states"]
                                          if kind == "recheck" else 0.0),
    }
    return m


def runtime_metrics(record):
    """Per-layer metrics of lib/runtime from one harness record."""
    lat = record["latency"]

    def p(hist, q, scale):
        v = lat[hist].get(q)
        return v / scale if v is not None else 0.0

    return {
        "runtime.gc_cycle_p50_ms": p("pause", "p50_ns", 1e6),
        "runtime.gc_cycle_p99_ms": p("pause", "p99_ns", 1e6),
        "runtime.gc_cycles_per_s": record["cycles"] / record["duration_s"],
        "runtime.hs_round_p50_us": p("hs_round", "p50_ns", 1e3),
        "runtime.hs_round_p99_us": p("hs_round", "p99_ns", 1e3),
        "runtime.barrier_slow_p50_ns": p("barrier_slow", "p50_ns", 1),
        "runtime.barrier_fast_fraction": lat["barrier_fast_fraction"],
        "runtime.cas_win_ratio": record["cas_wins"] / max(1, record["cas_attempts"]),
        "runtime.alloc_p50_ns": p("alloc", "p50_ns", 1),
        "runtime.alloc_p99_ns": p("alloc", "p99_ns", 1),
        "runtime.mark_p50_ms": p("mark", "p50_ns", 1e6),
        "runtime.sweep_p50_ms": p("sweep", "p50_ns", 1e6),
        "runtime.alloc_stalls": lat["alloc_stalls"],
    }


def harness_record(path):
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("event") == "harness":
                return rec
    return None


def per_layer(workload, args, tally):
    kind = WORKLOADS[workload]["kind"]
    if kind == "recheck":
        shutil.rmtree(cert_dir(), ignore_errors=True)
        if not tally.record(setup_ok(workload, Child(setup_argv(workload, args.seed)))):
            return None
    metrics = {name: 0.0 for name in PER_LAYER}
    obs = os.path.join(OUT, "harness-obs.jsonl") if kind == "harness" else None
    runtime = []

    def read_obs(_child):
        rec = harness_record(obs)
        if rec is not None:
            runtime.append(runtime_metrics(rec))

    budget = args.seconds if kind == "harness" else args.seconds / 2
    timed = repeat_timed(workload, args.seed, budget, tally, obs, read_obs if obs else None)
    reps = [c for c, _, _ in timed]
    if not reps:
        return None
    metrics["host.probe_s"] = median([p for _, _, p in timed])
    gc = [ocaml_gc_stats(c.err) for c in reps]
    words = 8 / 2**20  # bytes per word over bytes per MB
    metrics.update({
        "ocaml_gc.alloc_mwords": median([g.get("allocated_words", 0) / 1e6 for g in gc]),
        "ocaml_gc.promoted_mwords": median([g.get("promoted_words", 0) / 1e6 for g in gc]),
        "ocaml_gc.major_collections": median([g.get("major_collections", 0) for g in gc]),
        "ocaml_gc.top_heap_mb": median([g.get("top_heap_words", 0) * words for g in gc]),
    })
    if kind == "harness":
        for name in runtime[0] if runtime else []:
            metrics[name] = median([r[name] for r in runtime])
        return metrics
    wall_s = median([c.wall_s for c in reps])
    spans = os.path.join(OUT, f"spans-{workload}.tsv")
    child = Child(layers_argv(workload, rep_seed(args.seed, 0), spans))
    layers = json.loads(child.last_line()) if child.code == 0 else None
    pinned = WORKLOADS[workload]["pinned"]
    ok = layers is not None and all(layers.get(k) == v for k, v in pinned.items())
    if tally.record(ok):  # a replay that did other work gets no layer split
        metrics.update(layer_metrics(workload, layers, wall_s))
    return metrics


def run(workload, args):
    """(tally, metric values, metric units, raw measurements or None)."""
    tally = Tally()
    if args.trace:
        return tally, per_layer(workload, args, tally), PER_LAYER, None
    values, raw = end_to_end(workload, args, tally)
    return tally, values, END_TO_END, raw


def result_line(tally, values, units):
    return json.dumps({
        "correct": tally.failed == 0 and values is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def print_table(workload, tally, values, units, raw):
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"== {workload}: attempted={tally.attempted} failed={tally.failed} "
          f"failed_share={share:.4f}")
    for name, unit in units.items():
        print(f"   {name:40s} {values[name]:>16.6g} {unit}" if values else f"   {name}: -")
    if raw:
        print(f"   raw (unnormalized): {json.dumps(raw)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    build()
    if args.all:
        print(json.dumps({"provenance": provenance("all", args)}))
        for workload in WORKLOADS:
            for trace in (0, 1):
                args.trace = trace
                print_table(workload, *run(workload, args))
        return
    print(json.dumps({"provenance": provenance(args.workload, args)}))
    tally, values, units, raw = run(args.workload, args)
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_share={share:.4f} ({tally.failed} of {tally.attempted} attempted)")
    if raw:
        print(json.dumps({"raw": raw}))
    if values is None:
        sys.exit(f"perfbench: {args.workload}: no repetition gave the pinned answer")
    print(result_line(tally, values, units))


if __name__ == "__main__":
    main()
