"""The Xrm resource database: files, wildcards, precedence, merging.

This is what stands behind resource files, ``-xrm`` command line options
and Wafe's ``mergeResources`` command.  Specifications look like::

    *Font: fixed
    wafe.form.quit.label: Quit
    *Command.background: gray75

Components are separated by ``.`` (tight) or ``*`` (loose); each
component can match a widget *name* or its *class*.  Lookup follows the
X11R5 precedence rules: earlier (closer to the root) levels dominate,
name matches beat class matches beat ``?``, tight bindings beat loose
skips, and among equal matches the later-added entry wins (which gives
``mergeResources`` its override behaviour).

Lookup runs on a *quark tree*: components are interned to integer
quarks (:func:`quark`), entries live in a tree of nodes keyed by
``(quark, tight/loose)``, and lookup is split into
:meth:`XrmDatabase.get_search_list` -- computed once per widget path --
and :meth:`XrmDatabase.search` -- a cheap walk over that list, run once
per resource.  This mirrors X11R5's ``XrmQGetSearchList`` /
``XrmQGetSearchResource`` pair.

A generation counter invalidates memoised search lists whenever the
database changes (``mergeResources``, ``-xrm``), so dynamic merges stay
correct.  The pre-X11R5 algorithm -- scan every entry, score it with a
recursive matcher -- is the executable precedence specification; it
lives with the tests (``tests/oracles/xrm.py``), and
``tests/test_xrm_quarks.py`` pins the tree to byte-identical answers
on randomized databases.
"""

import time as _time

# ----------------------------------------------------------------------
# Quark interning (XrmStringToQuark / XrmQuarkToString)

_quark_table = {}
_quark_strings = []


def quark(string):
    """Intern ``string``; equal strings always give the same int."""
    q = _quark_table.get(string)
    if q is None:
        q = len(_quark_strings)
        _quark_table[string] = q
        _quark_strings.append(string)
    return q


def quark_name(q):
    """The string a quark was interned from."""
    return _quark_strings[q]


def quark_count():
    """How many distinct strings have been interned (process-wide)."""
    return len(_quark_strings)


def quark_list(strings):
    """Intern a component chain; returns a tuple of quarks."""
    get = _quark_table.get
    out = []
    for string in strings:
        q = get(string)
        if q is None:
            q = quark(string)
        out.append(q)
    return tuple(out)


_Q_ANY = quark("?")


class _Entry:
    __slots__ = ("bindings", "components", "value", "serial")

    def __init__(self, bindings, components, value, serial):
        self.bindings = bindings      # '.' or '*' before each component
        self.components = components  # names/classes/'?'
        self.value = value
        self.serial = serial


def parse_specifier(spec):
    """Split ``a*B.c`` into (bindings, components).

    Invalid specifiers -- empty, separator-only, or ending in a
    dangling ``.``/``*`` -- yield ``([], [])`` so callers add no entry
    (X11R5 rejects them rather than guessing).
    """
    spec = spec.strip()
    bindings = []
    components = []
    current = []
    pending = "."
    trailing_separator = False
    for ch in spec:
        if ch in ".*":
            trailing_separator = True
            if current:
                bindings.append(pending)
                components.append("".join(current))
                current = []
                pending = ch
            else:
                # Consecutive separators: '*' absorbs '.'
                if ch == "*":
                    pending = "*"
        else:
            trailing_separator = False
            current.append(ch)
    if current:
        bindings.append(pending)
        components.append("".join(current))
    elif trailing_separator or not components:
        # "a.b." / "*" / "" -- reject the whole specifier.
        return [], []
    return bindings, components


def _decode_value(raw):
    """Decode X11R5 resource-value escapes.

    ``\\n`` is a newline, ``\\\\`` a backslash, ``\\<space>`` and
    ``\\<tab>`` the literal whitespace character (so values may start
    with blanks), ``\\nnn`` with exactly three octal digits the coded
    character.  Any other backslash sequence passes through verbatim.
    """
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        nxt = raw[i + 1] if i + 1 < n else None
        if nxt == "n":
            out.append("\n")
            i += 2
        elif nxt == "\\":
            out.append("\\")
            i += 2
        elif nxt in (" ", "\t"):
            out.append(nxt)
            i += 2
        elif (nxt is not None and nxt in "01234567" and i + 3 < n
                and raw[i + 2] in "01234567" and raw[i + 3] in "01234567"):
            out.append(chr(int(raw[i + 1 : i + 4], 8)))
            i += 4
        else:
            out.append("\\")
            i += 1
    return "".join(out)


def _trailing_backslashes(text):
    count = 0
    for ch in reversed(text):
        if ch != "\\":
            break
        count += 1
    return count


class _Node:
    """One node of the quark tree (X11R5's NTable/LTable pair).

    ``tight``/``loose`` map a component quark to the child node behind
    a ``.``/``*`` binding; ``tight_values``/``loose_values`` map a
    *final* component quark to ``(value, serial)``.
    """

    __slots__ = ("tight", "loose", "tight_values", "loose_values")

    def __init__(self):
        self.tight = {}
        self.loose = {}
        self.tight_values = {}
        self.loose_values = {}


# Per-level match quality (leftmost level most significant).
_NAME_TIGHT = 6
_CLASS_TIGHT = 5
_ANY_TIGHT = 4
_NAME_LOOSE = 3
_CLASS_LOOSE = 2
_ANY_LOOSE = 1
_SKIPPED = 0


class XrmDatabase:
    """An in-memory resource database."""

    def __init__(self):
        self._entries = []
        self._serial = 0
        self._root = _Node()
        self._generation = 0
        self._search_cache = {}
        # ``info xrmstats`` counters.
        self._stat_hits = 0
        self._stat_misses = 0
        self._stat_searches = 0
        self._stat_generation_bumps = 0
        # Benchmarks flip this on to get a resource-lookup time column;
        # the hot path pays nothing while it is off.
        self.profile = False
        self.profile_s = 0.0
        self.profile_lookups = 0

    def __len__(self):
        return len(self._entries)

    @property
    def generation(self):
        """Bumped on every mutation; memoised search lists key on it."""
        return self._generation

    # ------------------------------------------------------------------
    # Building the database

    def put(self, spec, value):
        """Add one entry; returns False for an invalid specifier."""
        bindings, components = parse_specifier(spec)
        if not components:
            return False
        self._serial += 1
        self._entries.append(_Entry(bindings, components, value,
                                    self._serial))
        self._insert(bindings, components, value, self._serial)
        self._bump_generation()
        return True

    def _insert(self, bindings, components, value, serial):
        node = self._root
        for binding, component in zip(bindings[:-1], components[:-1]):
            q = quark(component)
            table = node.tight if binding == "." else node.loose
            child = table.get(q)
            if child is None:
                child = table[q] = _Node()
            node = child
        final = quark(components[-1])
        if bindings[-1] == ".":
            node.tight_values[final] = (value, serial)
        else:
            node.loose_values[final] = (value, serial)

    def _bump_generation(self):
        self._generation += 1
        self._stat_generation_bumps += 1
        if self._search_cache:
            self._search_cache.clear()

    def put_lines(self, text):
        """Load resource-file syntax: one ``spec: value`` per line.

        Returns the list of rejected specifier lines (invalid
        specifiers, per :func:`parse_specifier`) so callers like
        ``mergeResources`` can report advisories.
        """
        rejected = []
        lines = text.split("\n")
        i = 0
        n = len(lines)
        while i < n:
            segment = lines[i]
            i += 1
            stripped = segment.strip()
            if not stripped or stripped.startswith("!"):
                # Comments never continue: a trailing backslash on a
                # comment line must not swallow the following line.
                continue
            if stripped.startswith("#"):
                continue  # #include is not supported
            # Backslash-newline continuation: only an *odd* run of
            # trailing backslashes continues (an even run is escaped
            # backslashes that belong to the value).
            parts = [segment]
            while _trailing_backslashes(parts[-1]) % 2 == 1 and i < n:
                parts[-1] = parts[-1][:-1]
                parts.append(lines[i])
                i += 1
            line = "".join(parts)
            colon = line.find(":")
            if colon < 0:
                continue
            spec = line[:colon]
            value = _decode_value(line[colon + 1 :].lstrip(" \t"))
            if not self.put(spec, value.rstrip("\n")):
                rejected.append(spec.strip() or line.strip())
        return rejected

    def load_file(self, path):
        with open(path, "r") as handle:
            self.put_lines(handle.read())

    def merge(self, other):
        """Entries from ``other`` override equal matches here."""
        for entry in other._entries:
            self._serial += 1
            self._entries.append(_Entry(entry.bindings, entry.components,
                                        entry.value, self._serial))
            self._insert(entry.bindings, entry.components, entry.value,
                         self._serial)
        self._bump_generation()

    # ------------------------------------------------------------------
    # Two-phase lookup (XrmQGetSearchList / XrmQGetSearchResource)

    def get_search_list(self, name_quarks, class_quarks):
        """The nodes reachable for a widget path, in precedence order.

        ``name_quarks``/``class_quarks`` cover the widget path *without*
        the final resource component (application down to the widget
        itself).  The result is memoised until the database changes;
        widgets additionally cache it per instance, so creating a
        widget computes it once and every resource pays only
        :meth:`search`.
        """
        key = (name_quarks, class_quarks)
        cached = self._search_cache.get(key)
        if cached is not None:
            self._stat_hits += 1
            return cached
        self._stat_misses += 1
        slist = self._compute_search_list(name_quarks, class_quarks)
        self._search_cache[key] = slist
        return slist

    def _compute_search_list(self, name_quarks, class_quarks):
        # Dynamic programming over (node, loose_only) states.  A state
        # is ``loose_only`` after a level skip: per entry the skip is
        # licensed by the *next* component's loose binding, so after
        # skipping only loose continuations remain legal.  The score is
        # the per-level quality vector of the reference matcher, which
        # makes "sort by score" reproduce its precedence exactly.
        states = {(id(self._root), False): (self._root, False, ())}
        for nq, cq in zip(name_quarks, class_quarks):
            next_states = {}

            def consider(node, loose_only, score):
                key = (id(node), loose_only)
                best = next_states.get(key)
                if best is None or score > best[2]:
                    next_states[key] = (node, loose_only, score)

            for node, loose_only, score in states.values():
                if not loose_only and node.tight:
                    tight = node.tight
                    child = tight.get(nq)
                    if child is not None:
                        consider(child, False, score + (_NAME_TIGHT,))
                    if cq != nq:
                        child = tight.get(cq)
                        if child is not None:
                            consider(child, False, score + (_CLASS_TIGHT,))
                    child = tight.get(_Q_ANY)
                    if child is not None and nq != _Q_ANY and cq != _Q_ANY:
                        consider(child, False, score + (_ANY_TIGHT,))
                loose = node.loose
                if loose:
                    child = loose.get(nq)
                    if child is not None:
                        consider(child, False, score + (_NAME_LOOSE,))
                    if cq != nq:
                        child = loose.get(cq)
                        if child is not None:
                            consider(child, False, score + (_CLASS_LOOSE,))
                    child = loose.get(_Q_ANY)
                    if child is not None and nq != _Q_ANY and cq != _Q_ANY:
                        consider(child, False, score + (_ANY_LOOSE,))
                if loose or node.loose_values:
                    # A level skip, licensed by some loose continuation.
                    consider(node, True, score + (_SKIPPED,))
            states = next_states
            if not states:
                break
        ordered = sorted(states.values(), key=lambda s: s[2], reverse=True)
        slist = []
        loose_checked = set()
        for node, loose_only, __ in ordered:
            tight_values = None if loose_only else node.tight_values
            loose_values = node.loose_values
            if id(node) in loose_checked:
                # An earlier (higher-precedence) state already walks
                # this node's loose values.
                loose_values = None
            else:
                loose_checked.add(id(node))
            if loose_only and not loose_values:
                continue
            if not tight_values and not loose_values:
                continue
            slist.append((tight_values or None, loose_values or None))
        return tuple(slist)

    def search(self, slist, name_quark, class_quark):
        """Per-resource phase: walk a search list for one resource.

        Within a node the final level obeys the same quality order the
        reference matcher scores: tight name/class/``?`` before loose
        name/class/``?``.
        """
        self._stat_searches += 1
        if self.profile:
            start = _time.perf_counter()
            value = self._search(slist, name_quark, class_quark)
            self.profile_s += _time.perf_counter() - start
            self.profile_lookups += 1
            return value
        return self._search(slist, name_quark, class_quark)

    def _search(self, slist, name_quark, class_quark):
        for tight_values, loose_values in slist:
            if tight_values:
                hit = tight_values.get(name_quark)
                if hit is None and class_quark != name_quark:
                    hit = tight_values.get(class_quark)
                if hit is None:
                    hit = tight_values.get(_Q_ANY)
                if hit is not None:
                    return hit[0]
            if loose_values:
                hit = loose_values.get(name_quark)
                if hit is None and class_quark != name_quark:
                    hit = loose_values.get(class_quark)
                if hit is None:
                    hit = loose_values.get(_Q_ANY)
                if hit is not None:
                    return hit[0]
        return None

    # ------------------------------------------------------------------
    # Whole-path queries

    def query(self, names, classes):
        """Look up a resource.

        ``names``/``classes`` run from the application down to the
        resource name itself, e.g. ``["wafe", "form", "quit", "label"]``
        and ``["Wafe", "Form", "Command", "Label"]``.
        """
        if not names:
            return None
        if self.profile:
            start = _time.perf_counter()
            value = self._query_tree(names, classes)
            self.profile_s += _time.perf_counter() - start
            self.profile_lookups += 1
            return value
        return self._query_tree(names, classes)

    def _query_tree(self, names, classes):
        slist = self.get_search_list(quark_list(names[:-1]),
                                     quark_list(classes[:-1]))
        return self.search(slist, quark(names[-1]), quark(classes[-1]))

    # ------------------------------------------------------------------
    # Introspection (``info xrmstats``)

    def stats(self):
        hits, misses = self._stat_hits, self._stat_misses
        total = hits + misses
        return {
            "quarks": quark_count(),
            "entries": len(self._entries),
            "generation": self._generation,
            "generation_bumps": self._stat_generation_bumps,
            "searchlist_hits": hits,
            "searchlist_misses": misses,
            "searchlist_hit_rate": (hits / total) if total else 0.0,
            "cached_search_lists": len(self._search_cache),
            "searches": self._stat_searches,
        }

    def reset_stats(self):
        self._stat_hits = 0
        self._stat_misses = 0
        self._stat_searches = 0
        self._stat_generation_bumps = 0
        self.profile_s = 0.0
        self.profile_lookups = 0
