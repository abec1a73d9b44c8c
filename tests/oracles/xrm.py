"""The pre-X11R5 resource matcher: the executable precedence
specification of :class:`repro.xt.xrm.XrmDatabase`.

:func:`query_naive` scans every entry of a database and scores it with
a recursive matcher.  The production quark tree
(``get_search_list``/``search``) must give byte-identical answers;
tests/test_xrm_quarks.py pins that on randomized databases, and
benchmarks/bench_xrm.py times the two against each other through
:func:`use_naive_matcher`.
"""

from repro.xt.xrm import (
    _ANY_LOOSE,
    _ANY_TIGHT,
    _CLASS_LOOSE,
    _CLASS_TIGHT,
    _NAME_LOOSE,
    _NAME_TIGHT,
    _SKIPPED,
    quark_name,
)


def query_naive(database, names, classes):
    """Look up ``names``/``classes`` (application down to the resource)
    by linear scan: the best per-level score wins, and among equal
    scores the later-added entry."""
    best_score = None
    best_value = None
    best_serial = -1
    for entry in database._entries:
        score = _match(entry, 0, names, classes, 0)
        if score is None:
            continue
        key = tuple(score)
        if (best_score is None or key > best_score
                or (key == best_score and entry.serial > best_serial)):
            best_score = key
            best_value = entry.value
            best_serial = entry.serial
    return best_value


def use_naive_matcher(app):
    """Route every resource lookup of an ``XtAppContext`` (widget
    creation, ``query_resource``, ``XrmDatabase.query``) through
    :func:`query_naive`: the per-widget "search list" becomes the plain
    name/class path, and each per-resource search a full scan of the
    database."""
    database = app.database

    def path_of(widget):
        return ([app.app_name] + widget.name_path()[1:],
                [app.app_class] + widget.class_path()[1:])

    def search(path, name_quark, class_quark):
        names, classes = path
        return query_naive(database, names + [quark_name(name_quark)],
                           classes + [quark_name(class_quark)])

    app.resource_search_list = path_of
    database.search = search
    database.query = lambda names, classes: query_naive(
        database, names, classes)


def _match(entry, ei, names, classes, qi):
    """Recursive matcher; returns the per-level score list or None."""
    n_entry = len(entry.components)
    n_query = len(names)
    if ei == n_entry:
        return [] if qi == n_query else None
    if qi == n_query:
        return None
    component = entry.components[ei]
    binding = entry.bindings[ei]
    results = []
    # Try to match this component at this query level.
    quality = None
    if component == names[qi]:
        quality = _NAME_TIGHT if binding == "." else _NAME_LOOSE
    elif component == classes[qi]:
        quality = _CLASS_TIGHT if binding == "." else _CLASS_LOOSE
    elif component == "?":
        quality = _ANY_TIGHT if binding == "." else _ANY_LOOSE
    if quality is not None:
        rest = _match(entry, ei + 1, names, classes, qi + 1)
        if rest is not None:
            results.append([quality] + rest)
    # A loose binding may skip this query level entirely.
    if binding == "*":
        rest = _match(entry, ei, names, classes, qi + 1)
        if rest is not None:
            results.append([_SKIPPED] + rest)
    if not results:
        return None
    return max(results, key=tuple)
