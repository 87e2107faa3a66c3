#!/usr/bin/env python3
"""Runs one benchmark workload; builds the harness from source first if needed.

Usage, from the repository root:

    python3 perfbench/run.py --workload locat-online [--seed 42] [--seconds 10] [--trace 0|1]

The build (sbt, offline) compiles the repository's main sources together with
the harness under perfbench/src and is reused while no source file changes.
The harness prints a table and, as its last line, one JSON object; traces go
to perfbench/out/. The exit code is non-zero when any operation or
correctness check failed, or when the program's sources are missing.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, "out")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these packages opened, as spark-submit does.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
         "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
         "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]

child = None


def source_digest():
    h = hashlib.sha256()
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SRC, os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Compiles once per source digest and returns the runtime classpath."""
    digest = source_digest()
    cp_file = os.path.join(BUILD, "classpath-" + digest)
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            return fh.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # sbt's own state goes under .build too, so a build writes only inside
    # the checkout; dependencies are read from the offline coursier cache.
    cmd = ["sbt", "--batch", "-J-XX:-UsePerfData", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
           "-Dsbt.boot.directory=" + os.path.join(BUILD, "sbt-boot"),
           "-Dsbt.ivy.home=" + os.path.join(BUILD, "ivy"),
           "-Djava.io.tmpdir=" + tmp, "-Djna.tmpdir=" + tmp,
           "compile", "export Runtime/fullClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")
    cp = lines[-1].strip()
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        sys.exit("perfbench: build did not print a classpath")
    with open(cp_file, "w") as fh:
        fh.write(cp)
    return cp


def stop_child(*_):
    if child is not None and child.poll() is None:
        child.terminate()
        try:
            child.wait(10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    sys.exit(3)


def main():
    global child
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["locat-online", "sota-sim", "real-spark"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        sys.exit("perfbench: the program's sources (src/main/scala/repro) are missing")

    cp = build()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spark = args.workload == "real-spark"
    jvm = ["java", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-Xmx2g" if spark else "-Xmx1g"]
    # The simulator workloads are single-threaded; a serial collector keeps
    # the JVM from adding parallel GC threads to them.
    jvm += [] if spark else ["-XX:+UseSerialGC"]
    jvm += ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in OPENS] if spark else []
    cmd = jvm + ["-cp", cp, "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", args.trace, "--out", OUT]
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = child.wait(RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        stop_child()
    sys.exit(code)


if __name__ == "__main__":
    main()
