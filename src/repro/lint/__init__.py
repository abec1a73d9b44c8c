"""wafelint -- static analysis for Wafe/Tcl frontend scripts.

The paper leaves percent-code validity and command usage to "the
programmer's responsibility": mistakes in application scripts only
surface at runtime, inside a child process talking over a pipe.  But
the repo carries machine-readable ground truth for almost everything a
script can get wrong -- the codegen specs behind every generated
command, the widget classes' resource tables, the percent-code/event
matrix -- so this package checks scripts *before* they run:

* :func:`check` -- programmatic API: source text in, a list of
  :class:`~repro.lint.diagnostics.Diagnostic` out.  Never executes any
  script code; a script consisting of ``exit``/``exec``/infinite loops
  is analyzed in milliseconds.
* ``python -m repro.lint file...`` -- the CLI (see
  :mod:`repro.lint.cli`), with ``--format text|json`` and a non-zero
  exit status when error-severity diagnostics are found.
* ``wafe --f script --lint`` -- file mode analyzes before running and
  routes diagnostics through the frontend's error channel.

Every rule is documented with examples in ``docs/LINT.md``.
"""

from repro.lint.diagnostics import Diagnostic, ERROR, RULES, WARNING

# The analyzer and knowledge base import the full widget/spec tables;
# they are resolved lazily (PEP 562) so light consumers (the
# diagnostics table, :mod:`repro.lint.cfg`, :mod:`repro.lint.dataflow`)
# can import this package without paying for them.
_LAZY = {
    "Analyzer": ("repro.lint.analyzer", "Analyzer"),
    "Knowledge": ("repro.lint.knowledge", "Knowledge"),
    "knowledge_for": ("repro.lint.knowledge", "knowledge_for"),
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(target[0]), target[1])


def check(source, filename="<script>", build="athena", extra_commands=(),
          safe_profile=False):
    """Statically analyze a Wafe/Tcl script; returns diagnostics.

    ``build`` selects which command surface the script is checked
    against (``athena``, ``motif``, or ``both``); ``extra_commands``
    names application-registered commands (``wafe.register_command``)
    the script may legitimately call.  ``safe_profile`` additionally
    flags commands the runtime hides under ``--safe`` (rule W011).
    Lexical rules (W001..W011) and flow-sensitive rules (W012..W017)
    both run.
    """
    from repro.lint.analyzer import Analyzer
    from repro.lint.knowledge import knowledge_for

    analyzer = Analyzer(knowledge_for(build), filename=filename,
                        extra_commands=extra_commands,
                        safe_profile=safe_profile)
    analyzer.collect(source)
    analyzer.analyze(source)
    return analyzer.diagnostics()


__all__ = [
    "Analyzer",
    "Diagnostic",
    "ERROR",
    "Knowledge",
    "RULES",
    "WARNING",
    "check",
    "knowledge_for",
]
