#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program (``src/main/scala``) together with the benchmark
(``perfbench/src``) using the Scala compiler that ships in Spark's jar
directory and packs the classes into ``.bench_build/saqlbench.jar`` at the
repository root. The build is skipped when a stamp over every source file
matches the last build.

    python3 perfbench/build.py          # build, or report it is up to date
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build")
JAR = os.path.join(WORK, "saqlbench.jar")
STAMP = os.path.join(WORK, "build.sha256")


def _spark_jars():
    """$SPARK_HOME/jars, else the jars directory beside the first
    spark-submit on the PATH that has the Scala compiler.
    """
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if home and glob.glob(os.path.join(home, "jars", "scala-compiler-*.jar")):
            return os.path.join(home, "jars")
    return os.path.join(homes[0], "jars")


SPARK_JARS = _spark_jars()
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


class BuildError(Exception):
    pass


def sources():
    files = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"source directory {os.path.relpath(d, ROOT)} not found")
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    return sorted(files)


def compiler_jars():
    jars = glob.glob(os.path.join(SPARK_JARS, "scala-compiler-*.jar"))
    if not jars:
        raise BuildError(f"no scala-compiler jar in '{SPARK_JARS}'; set SPARK_HOME")
    return jars


def digest(files):
    h = hashlib.sha256()
    for j in compiler_jars():
        h.update(os.path.basename(j).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def java_cmd(jvm_opts, main_args):
    """The JVM command line of a benchmark run."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return (["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
            + [f"-Djava.io.tmpdir={tmp}",
               f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
               f"-Dsaqlbench.work={WORK}",
               f"-Dsaqlbench.pins={os.path.join(BENCH, 'fingerprints.txt')}"]
            + jvm_opts
            + ["-cp", JAR + os.pathsep + os.path.join(SPARK_JARS, "*"), "saqlbench.Main"]
            + main_args)


def _compile(files):
    classes = os.path.join(WORK, "classes")
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    argfile = os.path.join(WORK, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(SPARK_JARS, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", classes, "@" + argfile]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    with zipfile.ZipFile(JAR + ".tmp", "w", zipfile.ZIP_STORED) as z:
        for d, _, fs in os.walk(classes):
            for f in sorted(fs):
                p = os.path.join(d, f)
                z.write(p, os.path.relpath(p, classes))
    os.replace(JAR + ".tmp", JAR)
    shutil.rmtree(classes)


def ensure():
    """Builds if stale; returns the source digest."""
    files = sources()
    if not any(f.startswith(SOURCE_DIRS[0]) for f in files):
        raise BuildError("no program sources under src/main/scala")
    sha = digest(files)
    if os.path.isfile(JAR) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == sha:
                return sha
    os.makedirs(WORK, exist_ok=True)
    if os.path.exists(STAMP):
        os.remove(STAMP)
    _compile(files)
    with open(STAMP, "w") as fh:
        fh.write(sha + "\n")
    return sha


if __name__ == "__main__":
    try:
        sha = ensure()
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"built {os.path.relpath(JAR, ROOT)} ({sha[:12]})")
