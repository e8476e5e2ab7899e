"""Which ``src/repro`` functions does production enter, and which only tests?

Production is every ``run`` step of CI's ``cli-smoke`` job (the figure
report, the examples, the CLI commands and their checks), executed as CI
executes it, plus one ``perf/run.py --workload W --seed 7 --smoke --trace 1``
lifecycle per workload of ``BENCHMARK.json``. Tier-1 runs after it. ``python``
resolves to a shim that puts a generated ``sitecustomize`` first on the path,
so each Python process records under a global ``sys.settrace`` that returns
``None`` (only call events fire), keyed by code object. Prints one row per
function that only tier-1 (``tests``), or nothing, enters::

    python tools/readers.py

Needs PyYAML to read ``.github/workflows/ci.yml``.
"""

import glob, json, os, shutil, subprocess, sys, tempfile

import yaml

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")

SITECUSTOMIZE = """\
import atexit, os, sys, threading
seen = set()
def on_call(frame, event, arg):
    seen.add(frame.f_code)
def dump():
    sys.settrace(None)
    with open(os.path.join(os.path.dirname(__file__), "entered"), "a") as handle:
        for c in seen:
            path = os.path.realpath(c.co_filename)
            if path.startswith({src!r}):
                handle.write(f"{path}:{c.co_firstlineno}:{c.co_qualname}\\n")
atexit.register(dump)
threading.settrace(on_call)
sys.settrace(on_call)
"""


def key(path, line, name):
    return f"{os.path.relpath(path, REPO)}:{line}:{name}"


def functions():
    """Every named function of ``src/repro``: its key and executable lines."""
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        stack = [compile(open(path).read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            if not code.co_name.startswith("<"):
                lines = {ln for _, _, ln in code.co_lines() if ln}
                yield (key(path, code.co_firstlineno, code.co_qualname),
                       len(lines - {code.co_firstlineno}))


def main():
    work = tempfile.mkdtemp(prefix="readers-")
    for name in ("src", "tests", "examples", "EXPERIMENTS.md"):
        os.symlink(os.path.join(REPO, name), os.path.join(work, name))
    for name in ("site", "bin"):
        os.mkdir(os.path.join(work, name))
    with open(os.path.join(work, "site", "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE.replace("{src!r}", repr(SRC + os.sep)))
    for shim in ("python", "python3"):
        path = os.path.join(work, "bin", shim)
        with open(path, "w") as handle:
            handle.write(f'#!/bin/sh\nPYTHONPATH="{work}/site${{PYTHONPATH:+:$PYTHONPATH}}" '
                         f'exec "{sys.executable}" "$@"\n')
        os.chmod(path, 0o755)
    entered = os.path.join(work, "site", "entered")
    env = dict(os.environ, PATH=f"{work}/bin:{os.environ['PATH']}")
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as handle:
        steps = yaml.safe_load(handle)["jobs"]["cli-smoke"]["steps"]
    for step in steps:
        if "run" in step and "pip install" not in step["run"]:
            done = subprocess.run(["bash", "-e", "-o", "pipefail", "-c", step["run"]],
                                  cwd=work, env=env, capture_output=True)
            if done.returncode:
                print(f"step failed: {step['name']}", file=sys.stderr)
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    for w in workloads:
        subprocess.run(["python", "perf/run.py", "--workload", w, "--seed", "7",
                        "--smoke", "--trace", "1"], cwd=REPO, env=env, capture_output=True)
    read = lambda: {key(*k.rsplit(":", 2)) for k in open(entered).read().split()}  # noqa: E731
    production = read()
    os.remove(entered)
    subprocess.run(["python", "-m", "pytest", "-q", "-p", "no:cacheprovider"], cwd=REPO,
                   capture_output=True, env=dict(env, PYTHONPATH=f"{REPO}/src"))
    by_tests = read()
    shutil.rmtree(work)
    rows = [("tests" if k in by_tests else "nothing", n, k)
            for k, n in functions() if k not in production]
    for verdict, n, k in rows:
        print(f"{verdict:<8} {n:>4}  {k}")
    print(json.dumps({v: [len([r for r in rows if r[0] == v]),
                          sum(r[1] for r in rows if r[0] == v)]
                      for v in ("tests", "nothing")}))


if __name__ == "__main__":
    main()
