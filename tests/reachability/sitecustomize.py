"""Records which functions under ``src/`` a Python process calls.

``audit.py`` puts this directory first on ``PYTHONPATH``, so every
Python process the test suite starts imports this module at startup,
child processes included.  It does nothing unless the environment
variable ``REACHABILITY_RECORDS`` names a directory.  Then it installs a
profile hook in this process and in every thread started afterwards,
keeps each code object seen on a ``call`` event, and at exit writes one
file into that directory: ``<relpath>:<co_firstlineno>`` per line for
the code objects whose file lies under ``src/``.

A process that exits through the interpreter's normal shutdown writes
its file; one killed by a signal writes none.
"""

import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACHABILITY_RECORDS")


def _install(out_dir):
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src")
    start_cwd = os.getcwd()
    seen = set()

    def profile(frame, event, arg, add=seen.add):
        if event == "call":
            add(frame.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        lines = set()
        for code in seen:
            path = os.path.normpath(os.path.join(start_cwd, code.co_filename))
            if path.startswith(src + os.sep):
                lines.add("%s:%d:%s" % (os.path.relpath(path, src),
                                        code.co_firstlineno, code.co_name))
        name = os.path.join(out_dir, "%d.txt" % os.getpid())
        with open(name, "a") as fh:
            fh.write("".join(line + "\n" for line in sorted(lines)))

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


if _OUT:
    _install(_OUT)
