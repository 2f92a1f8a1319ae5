#!/usr/bin/env python3
"""The repo benchmark: one polytmd workload per command.

Run from the repository root:

    python3 perfbench/run.py --workload mixed|point|durable \
        --seed N --seconds S --trace 0|1

It builds polytmd and the benchmark's two programs with dune, pins
itself to one CPU (the server and client it starts inherit the pin),
then:

- --trace 0: starts a fresh polytmd for each of PHASES phases, drives it
  with perfbench/loadgen.exe, and prints the end-to-end metrics, each
  the median of its per-phase values (setup_s over every set-up in the
  run) at the reference speed: a phase's times are divided by its
  slowdown, the load generator's CPU time per reply in the window over
  the workload's CLIENT_US_PER_OP, and its throughput multiplied by it;
- --trace 1: runs one such phase for the figures only a live server
  gives (CPU per op, op-log counters), then perfbench/ladder.exe, which
  calls each layer in-process, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Why each workload and metric exists is in
perfbench/RATIONALE.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

RUN_BASE = ".perfbench_run"
SPANS_DIR = ".perfbench_out"
POLYTMD = "_build/default/bin/polytmd.exe"
LOADGEN = "_build/default/perfbench/loadgen.exe"
LADDER = "_build/default/perfbench/ladder.exe"
WORKLOADS = ("mixed", "point", "durable")

# Fresh server processes per untraced run.  Server speed varies between
# processes, and bursts of load on the machine slow a few windows of a
# run, so a run reports the median over several.
PHASES = 10
# Set-ups per phase on the workloads whose set-up is a prefill of
# 30-70 ms: the phase's own, then fresh servers that only set up and are
# killed.  One prefill varies by a third between processes, so setup_s
# is the median over all of them.  durable's set-up is a recovery of
# 1-2.5 s that varies far less, and runs once per phase.
PREFILL_SETUPS = 4
# Seeded stores per durable run, recovered by its phases in turn.  The
# recovered server's peak RSS and its set-up time are set by the log it
# replays and differ by seed (24.7 against 30.7 MB of RSS in every
# phase of two seeds), so a run's median is that of the middle store.
SEED_STORES = 3
# Beyond a phase's window: the longest set-up (durable's seed and
# recovery, under 30 s) and the drain fit well inside it.  A tool that
# has not finished by then is killed, and polytmd stops itself
# SERVER_GRACE_S later even if this script dies.
MARGIN_S = 100
SERVER_GRACE_S = 20
# The reference speed: the load generator's CPU time per successful
# reply on each workload, in us, as it read in calm periods on the VM
# the benchmark was written on.  The host's speed drifts by up to 2.5x
# over minutes, and the client is fixed code running on the same CPU in
# the same window as the server, so its cost per reply over this
# reference is the phase's slowdown (RATIONALE.md).
CLIENT_US_PER_OP = {"mixed": 8.5, "point": 1.45, "durable": 1.64}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


class Run:
    """One benchmark run's processes and files, all removed on exit."""

    def __init__(self):
        self.dir = os.path.join(RUN_BASE, str(os.getpid()))
        self.procs = []
        self.count = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def path(self, name):
        self.count += 1
        return os.path.join(self.dir, "%s%d" % (name, self.count))

    def spawn_server(self, sock, extra, window):
        backstop = int(window + MARGIN_S + SERVER_GRACE_S)
        cmd = [POLYTMD, "--listen", "unix:" + sock, "--workers", "1",
               "--shards", "1", "--algo", "tl2", "--struct", "map:bench",
               "--max-seconds", str(backstop), "--quiet"] + extra
        log = open(self.path("server-log"), "w")
        t_spawn = time.time()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
        log.close()
        self.procs.append(proc)
        return proc, t_spawn

    def start_tool(self, cmd):
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        self.procs.append(proc)
        return proc

    def finish_tool(self, proc, window, stdin=""):
        """Feed [stdin], wait, and return the last stdout line as JSON."""
        cmd = proc.args
        try:
            out, _ = proc.communicate(input=stdin, timeout=window + MARGIN_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("%s timed out" % os.path.basename(cmd[0]))
        self.procs.remove(proc)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("%s failed (exit %d)" % (os.path.basename(cmd[0]),
                                          proc.returncode))
        return json.loads(lines[-1])

    def run_tool(self, cmd):
        return self.finish_tool(self.start_tool(cmd), 0)

    def stop(self, proc):
        """Kill [proc] and wait for it: nothing a server holds is kept,
        and durable's seed server is meant to crash."""
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc in self.procs:
            self.procs.remove(proc)

    def close(self):
        for proc in list(self.procs):
            self.stop(proc)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(RUN_BASE)
        except OSError:
            pass


def durable_flags(data_dir, fsync):
    # No automatic checkpoint, so none lands inside some windows and not
    # others.
    return ["--dir", data_dir, "--fsync", fsync, "--checkpoint-sec", "0"]


def server_flags(workload, data_dir):
    if workload != "durable":
        return []
    # The measured servers sync the log once a second: with an fsync on
    # every ack, the checkout's disk set the figures (see RATIONALE.md).
    return durable_flags(data_dir, "everysec")


def seed_durable(run, seed):
    """Seed a data directory through one connection, then kill -9 the
    server after the last ack.  Returns the directory and the model."""
    data = run.path("seed-data")
    model = run.path("seed-model")
    sock = run.path("s")
    proc, _ = run.spawn_server(sock, durable_flags(data, "always"), 0)
    run.run_tool([LOADGEN, "--mode", "seed", "--sock", sock,
                  "--seed", str(seed), "--model-out", model])
    run.stop(proc)
    return data, model


def seeded_stores(run, workload, seed, n):
    """durable's n seeded stores, each from its own seed; on the
    workloads that prefill, a single None."""
    if workload != "durable":
        return [None]
    return [seed_durable(run, seed * n + i) for i in range(n)]


def phase(run, workload, seed, window, seeded=None, mode="traffic"):
    """One fresh server: set up, then warm up and measure, or with mode
    "setup" only set up.  For durable the server recovers a copy of the
    seeded (crashed) directory."""
    sock = run.path("s")
    data = run.path("data")
    if seeded:
        shutil.copytree(seeded[0], data)
    cmd = [LOADGEN, "--mode", mode, "--sock", sock, "--workload", workload,
           "--seed", str(seed)]
    if seeded:
        cmd += ["--model-in", seeded[1]]
    if mode == "traffic":
        cmd += ["--seconds", "%.3f" % window]
    # The client starts first and waits for the server's pid on stdin,
    # so setup_s times the server alone: from its spawn to the prefill's
    # last ack, or to its first reply after recovery.
    client = run.start_tool(cmd)
    proc, t_spawn = run.spawn_server(sock, server_flags(workload, data),
                                     window)
    res = run.finish_tool(client, window, stdin="%d\n" % proc.pid)
    run.stop(proc)
    shutil.rmtree(data, ignore_errors=True)
    res["setup_s"] = res["ready_at"] - t_spawn
    if mode != "traffic":
        return res
    if res["ok"] < 1:
        fail("no successful request in the window")
    res["throughput_ops_s"] = res["ok"] / res["window_s"]
    res["cpu_us_per_op"] = res["cpu_s"] * 1e6 / res["ok"]
    res["client_us_per_op"] = res["client_cpu_s"] * 1e6 / res["ok"]
    res["slowdown"] = res["client_us_per_op"] / CLIENT_US_PER_OP[workload]
    return res


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, workload, seed, seconds):
    """The phases, the set-up-only runs and the end-to-end metrics."""
    stores = seeded_stores(run, workload, seed, SEED_STORES)
    setups_per_phase = 1 if stores[0] else PREFILL_SETUPS
    phases, setups = [], []
    for i in range(PHASES):
        base = seed * 100 + i * setups_per_phase
        seeded = stores[i % len(stores)]
        p = phase(run, workload, base, seconds / PHASES, seeded)
        phases.append(p)
        # a set-up-only server is timed at the speed of the phase before it
        for j in range(1, setups_per_phase):
            s = phase(run, workload, base + j, 0, seeded, mode="setup")
            s["slowdown"] = p["slowdown"]
            setups.append(s)

    def med(key, scale, runs=phases):
        return statistics.median(p[key] * p["slowdown"] ** scale for p in runs)

    # Times are divided by the phase's slowdown and rates multiplied by
    # it: each figure is reported at the reference speed.
    return phases, setups, {
        "throughput_ops_s": metric(med("throughput_ops_s", 1), "1/s"),
        "p50_us": metric(med("p50_us", -1), "us"),
        "p99_us": metric(med("p99_us", -1), "us"),
        "server_cpu_us_per_op": metric(med("cpu_us_per_op", -1), "us"),
        "server_rss_mb": metric(med("rss_kb", 0) / 1024.0, "MB"),
        "setup_s": metric(med("setup_s", -1, phases + setups), "s"),
    }


def traced(run, workload, seed, seconds):
    seeded = seeded_stores(run, workload, seed, 1)[0]
    p = phase(run, workload, seed * 100, seconds / PHASES, seeded)
    os.makedirs(SPANS_DIR, exist_ok=True)
    cmd = [LADDER, "--workload", workload, "--seed", str(seed),
           "--dir", run.path("ladder"), "--spans-out",
           os.path.join(SPANS_DIR, "spans-%s.jsonl" % workload)]
    if seeded:
        cmd += ["--replay-dir", seeded[0]]
    layers = run.run_tool(cmd)
    metrics = {name: metric(v, u) for name, (v, u) in layers.items()}
    session_us = layers["session.ns_per_op"][0] / 1e3
    muts = max(p["mutations"], 1)
    metrics["evloop.self_us_per_op"] = metric(p["cpu_us_per_op"] - session_us,
                                              "us")
    metrics["persist.fsyncs_per_mutation"] = metric(p["fsyncs"] / muts,
                                                    "count")
    metrics["persist.log_bytes_per_mutation"] = metric(p["log_bytes"] / muts,
                                                       "B")
    return [p], [], metrics


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    r = subprocess.run([dune, "build", "--root", ".", "--display", "quiet",
                        "./bin/polytmd.exe", "./perfbench/loadgen.exe",
                        "./perfbench/ladder.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (os.path.isfile("dune-project") and
            os.path.isfile("bin/polytmd.ml")):
        fail("no polytm source tree here; run from the repository root")
    build()
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        fail("cannot pin processes to a CPU (%s); refusing to measure an "
             "unpinned setup" % e)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    run = Run()
    try:
        if args.trace:
            phases, setups, metrics = traced(run, args.workload, args.seed,
                                             args.seconds)
        else:
            phases, setups, metrics = end_to_end(run, args.workload,
                                                 args.seed, args.seconds)
    finally:
        run.close()
    correct = all(p["verified"] and p["wrong"] == 0 for p in phases + setups)
    for i, p in enumerate(phases):
        print("phase %d (as measured): %.0f ops/s  p50 %.1f us  p99 %.1f us  "
              "cpu %.2f us/op  client %.3f us/op  slowdown %.3f  "
              "rss %.1f MB  setup %.3f s  failed %d" %
              (i, p["throughput_ops_s"], p["p50_us"], p["p99_us"],
               p["cpu_us_per_op"], p["client_us_per_op"], p["slowdown"],
               p["rss_kb"] / 1024.0, p["setup_s"], p["failed"]))
    if setups:
        print("%d set-ups only: setup %.3f-%.3f s" %
              (len(setups), min(p["setup_s"] for p in setups),
               max(p["setup_s"] for p in setups)))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in phases + setups),
        "failed": sum(p["failed"] for p in phases + setups),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
