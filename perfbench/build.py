#!/usr/bin/env python3
"""Build file of the D-core benchmark.

Compiles the repository's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) with the Scala compiler that ships
in Spark's jars directory, into .bench_build/perfbench/classes-<hash>. The
hash covers every source file and the jar list, so an unchanged tree is not
rebuilt. Run it from the repository root: `python3 perfbench/build.py`.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def spark_jars_dir():
    """$SPARK_HOME/jars, or the jars next to spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "spark-core_*.jar")):
        sys.exit("perfbench: no Spark distribution found (set SPARK_HOME)")
    return jars


def sources():
    main = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not main:
        sys.exit("perfbench: src/main/scala holds no sources; run from a repository checkout")
    return main + sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))


def source_hash(srcs, jars):
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for jar in sorted(os.listdir(jars)):
        h.update(jar.encode())
    return h.hexdigest()


def build():
    """Returns (classes directory, spark jars directory, source hash)."""
    jars = spark_jars_dir()
    srcs = sources()
    digest = source_hash(srcs, jars)
    classes = os.path.join(OUT, "classes-" + digest[:16])
    if os.path.exists(os.path.join(classes, ".complete")):
        return classes, jars, digest
    os.makedirs(OUT, exist_ok=True)
    for old in glob.glob(os.path.join(OUT, "classes-*")):
        shutil.rmtree(old, ignore_errors=True)
    tmp = classes + ".tmp"
    os.makedirs(tmp)
    cp = os.pathsep.join(sorted(glob.glob(os.path.join(jars, "*.jar"))))
    cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp, "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-nowarn", "-d", tmp, "-classpath", cp] + srcs
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit("perfbench: compilation failed")
    open(os.path.join(tmp, ".complete"), "w").close()
    os.rename(tmp, classes)
    return classes, jars, digest


if __name__ == "__main__":
    print(build()[0])
