"""Reachability audit: every function under ``src/`` is called by tier-1.

Run from anywhere (no ``PYTHONPATH`` needed)::

    python tests/reachability/audit.py

It runs ``python -m pytest -x -q`` at the repository root with
``sitecustomize.py`` from this directory first on ``PYTHONPATH``, so the
suite and every Python child it starts record the ``src/`` code objects
they call (see that module).  It then walks ``src/`` with ``ast``.  A
function counts as reached when a recorded code object has its name
and starts on its ``def`` line or on its first decorator's line.

The functions never reached are printed as ``path::qualname`` entries
(path relative to ``src/``) and compared with ``unreached.txt``, which
lists each one allowed to stay unreached with a one-line reason.  The
audit fails when the suite fails, when an unreached function is not
listed, when a listed function is missing a reason, and when a listed
function is now reached or no longer exists: the list only shrinks.
"""

import ast
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
LISTED = os.path.join(HERE, "unreached.txt")


def run_suite(records):
    """Run tier-1 with the recorder on; return pytest's exit status."""
    env = dict(os.environ)
    env["REACHABILITY_RECORDS"] = records
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (HERE, SRC, env.get("PYTHONPATH")) if p)
    return subprocess.call([sys.executable, "-m", "pytest", "-x", "-q"],
                           cwd=ROOT, env=env)


def load_records(records):
    """The ``(path, first line, name)`` triples every process recorded."""
    seen = set()
    for name in os.listdir(records):
        with open(os.path.join(records, name)) as fh:
            for line in fh:
                path, lineno, code_name = line.rstrip("\n").split(":", 2)
                seen.add((path, int(lineno), code_name))
    return seen


def functions(src):
    """Yield ``(entry, path, name, start lines)`` for every function.

    ``entry`` is ``path::qualname`` with the path relative to ``src``;
    a qualname defined twice in one file (a property and its setter)
    gets ``#2``, ``#3``... on the later definitions.
    """
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for file_name in sorted(files):
            if not file_name.endswith(".py"):
                continue
            full = os.path.join(folder, file_name)
            path = os.path.relpath(full, src)
            with open(full) as fh:
                tree = ast.parse(fh.read(), full)
            counts = {}
            for qualname, node in _walk(tree, ""):
                counts[qualname] = counts.get(qualname, 0) + 1
                if counts[qualname] > 1:
                    qualname += "#%d" % counts[qualname]
                starts = {node.lineno}
                if node.decorator_list:
                    starts.add(node.decorator_list[0].lineno)
                yield "%s::%s" % (path, qualname), path, node.name, starts


def _walk(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield qualname, child
            yield from _walk(child, qualname + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, prefix + child.name + ".")
        else:
            yield from _walk(child, prefix)


def unreached(src, seen):
    """Entries of the functions no recorded code object matches."""
    out = []
    total = 0
    for entry, path, name, starts in functions(src):
        total += 1
        if not any((path, line, name) in seen for line in starts):
            out.append(entry)
    return out, total


def load_listed(listed):
    """``entry -> reason`` from ``unreached.txt`` (``#`` starts a comment)."""
    out = {}
    with open(listed) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entry, _, reason = line.partition(" ")
            out[entry] = reason.strip()
    return out


def compare(found, listed, existing):
    """Problems with ``unreached.txt`` given the audit's findings."""
    problems = []
    for entry in found:
        if entry not in listed:
            problems.append("unreached and not listed: %s" % entry)
    found_set = set(found)
    for entry, reason in sorted(listed.items()):
        if entry not in existing:
            problems.append("listed but no longer exists: %s" % entry)
        elif entry not in found_set:
            problems.append("listed but now reached: %s" % entry)
        if not reason:
            problems.append("listed without a reason: %s" % entry)
    return problems


def main():
    with tempfile.TemporaryDirectory(prefix="reachability-") as records:
        status = run_suite(records)
        if status != 0:
            print("audit: the test suite failed (exit %d); no verdict"
                  % status)
            return status
        seen = load_records(records)
        processes = len(os.listdir(records))
    found, total = unreached(SRC, seen)
    existing = {entry for entry, _, _, _ in functions(SRC)}
    print("audit: %d processes recorded; %d of %d functions under src/ "
          "never called:" % (processes, len(found), total))
    for entry in found:
        print("  " + entry)
    problems = compare(found, load_listed(LISTED), existing)
    for problem in problems:
        print("audit: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
