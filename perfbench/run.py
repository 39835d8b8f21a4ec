#!/usr/bin/env python3
"""Build flbd and the benchmark from source, then run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-faults --seed 1 --seconds 40 --trace 0

Every argument is passed on to the benchmark command (perfbench/main.go).
Build outputs, the Go build cache, daemon logs, span files and layer
tables all go under .bench_build/ in the checkout ($CARGO_TARGET_DIR when
it is set), so the run writes nothing outside the checkout. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    out = os.path.join(build, "perfbench")
    for d in (tmp, out, os.path.join(build, "bin")):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(build, "go-cache"),
            "GOPATH": os.path.join(build, "gopath"),
            "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
            "GOENV": "off",
            "GOTOOLCHAIN": "local",
            "GOFLAGS": "-mod=mod",
            "GOPROXY": "off",
            "GOSUMDB": "off",
            "CGO_ENABLED": "0",
            "HOME": os.path.join(build, "home"),
            "XDG_CONFIG_HOME": os.path.join(build, "config"),
            "TMPDIR": tmp,
            "GOTMPDIR": tmp,
        }
    )
    flbd = os.path.join(build, "bin", "flbd")
    bench = os.path.join(build, "bin", "perfbench")
    for cwd, target, pkg in ((root, flbd, "./cmd/flbd"), (bench_dir, bench, ".")):
        built = subprocess.run(
            ["go", "build", "-o", target, pkg],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if built.returncode != 0:
            sys.stderr.write("run.py: building %s failed:\n%s" % (pkg, built.stderr))
            return 2

    os.execve(bench, [bench] + sys.argv[1:] + ["--flbd", flbd, "--out", out], env)


if __name__ == "__main__":
    sys.exit(main())
