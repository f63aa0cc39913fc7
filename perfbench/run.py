#!/usr/bin/env python3
"""D-core benchmark: one workload, one run.

    python3 perfbench/run.py --workload acv-wv --seed 1 --seconds 25 --trace 0

Builds the benchmark (perfbench/build.py) if the sources changed, then runs
one JVM that decomposes the workload's stand-in graph in a closed loop for
about --seconds, checks each result against the peeling baseline, and prints
the metrics as the last line of standard output, one JSON object. --trace 1
adds a Spark listener and off-line probes and prints the per-layer metrics
instead. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import build  # noqa: E402

ROOT = build.ROOT
XMX = "3g"
CORES = 4
TIMEOUT_S = 170
JDK17_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["acv-wv", "scb-ee", "acb-am"])
    p.add_argument("--seed", required=True, type=int, help="vertex relabelling seed; 0 keeps the generated ids")
    p.add_argument("--seconds", required=True, type=float, help="length of the timed closed loop")
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--size", default="bench", choices=["bench", "full"],
                   help="bench: scaled-down stand-in (default); full: the Datasets stand-in as defined")
    p.add_argument("--graph-seed", type=int, help="generator seed (default: the Datasets seed)")
    a = p.parse_args()

    classes, jars, digest = build.build()
    work = os.path.join(build.OUT, "work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    nproc = os.cpu_count() or 1
    master = "local[%d]" % min(CORES, nproc)
    cmd = ["java", "-Xmx" + XMX, "-Xms" + XMX, "-XX:-UsePerfData"]
    cmd += ["--add-opens=%s=ALL-UNNAMED" % o for o in JDK17_OPENS]
    cmd += ["-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
            "-Dspark.sql.warehouse.dir=" + os.path.join(work, "warehouse"),
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-cp", classes + os.pathsep + os.path.join(jars, "*"),
            "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--size", a.size, "--master", master,
            "--env.xmx", XMX, "--env.commit", git_commit(), "--env.source_sha256", digest]
    if a.graph_seed is not None:
        cmd += ["--graph-seed", str(a.graph_seed)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=TIMEOUT_S if a.size == "bench" else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
