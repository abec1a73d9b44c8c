"""Tests for the quark-interned Xrm machinery.

Covers the quark intern table, the tree-backed search-list lookup and
its equivalence to the naive matcher in tests/oracles/xrm.py
(differential test),
resource-file escape decoding, specifier validation and its
mergeResources advisory, generation invalidation, ``info xrmstats``,
the event-type dispatch index, and the shell ``geometry`` resource.
"""

import random

import pytest

from repro.core import make_wafe
from repro.xlib import close_all_displays, xtypes
from repro.xlib.events import XEvent
from repro.xt.translations import parse_translation_table
from repro.xt.xrm import (
    XrmDatabase,
    parse_specifier,
    quark,
    quark_list,
    quark_name,
)
from tests.oracles.xrm import query_naive, use_naive_matcher


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


class TestQuarks:
    def test_interning_is_stable(self):
        assert quark("background") == quark("background")
        assert quark("background") != quark("Background")

    def test_round_trip(self):
        q = quark("a-new-component")
        assert quark_name(q) == "a-new-component"

    def test_quark_list(self):
        qs = quark_list(["wafe", "form", "quit"])
        assert qs == (quark("wafe"), quark("form"), quark("quit"))


class TestSpecifierValidation:
    @pytest.mark.parametrize("spec", ["", "   ", ".", "*", "..", "*.",
                                      "a.", "a*", "a.b.", "wafe*form*"])
    def test_invalid_specifiers_rejected(self, spec):
        assert parse_specifier(spec) == ([], [])

    def test_put_refuses_invalid_specifier(self):
        db = XrmDatabase()
        assert db.put("a.b.", "x") is False
        assert len(db) == 0

    def test_put_lines_reports_rejections(self):
        db = XrmDatabase()
        rejected = db.put_lines("*good: 1\nbad.: 2\n*: 3\n")
        assert rejected == ["bad.", "*"]
        assert len(db) == 1

    def test_surrounding_whitespace_is_stripped(self):
        assert parse_specifier("  *Font ") == (["*"], ["Font"])


class TestValueEscapes:
    def get(self, text, names="w v", classes="W V"):
        db = XrmDatabase()
        db.put_lines(text)
        return db.query(names.split(), classes.split())

    def test_backslash_n_is_newline(self):
        assert self.get("*v: line1\\nline2") == "line1\nline2"

    def test_double_backslash_is_backslash(self):
        assert self.get("*v: a\\\\b") == "a\\b"

    def test_escaped_leading_space(self):
        assert self.get("*v: \\ indented") == " indented"

    def test_escaped_tab(self):
        assert self.get("*v: \\\tx") == "\tx"

    def test_octal_escape(self):
        assert self.get("*v: bell\\007!") == "bell\x07!"

    def test_short_octal_passes_through(self):
        # Only exactly three octal digits are a coded character.
        assert self.get("*v: a\\07b") == "a\\07b"

    def test_unknown_escape_passes_through(self):
        assert self.get("*v: C:\\path") == "C:\\path"

    def test_continuation_joins_lines(self):
        assert self.get("*v: one\\\ntwo") == "onetwo"

    def test_even_backslash_run_does_not_continue(self):
        # "one\\" + newline: the backslashes are an escaped backslash
        # belonging to the value; the next line is its own entry.
        db = XrmDatabase()
        db.put_lines("*v: one\\\\\n*w: two\n")
        assert db.query(["x", "v"], ["X", "V"]) == "one\\"
        assert db.query(["x", "w"], ["X", "W"]) == "two"

    def test_comment_with_trailing_backslash_does_not_swallow(self):
        db = XrmDatabase()
        db.put_lines("! a comment \\\n*v: kept\n")
        assert db.query(["x", "v"], ["X", "V"]) == "kept"


class TestPrecedenceCornerCases:
    """Byte-for-byte precedence pins, checked against BOTH engines."""

    def both(self, entries, names, classes):
        db = XrmDatabase()
        for spec, value in entries:
            db.put(spec, value)
        via_tree = db.query(names.split(), classes.split())
        via_naive = query_naive(db, names.split(), classes.split())
        assert via_tree == via_naive
        return via_tree

    def test_tight_class_beats_loose_name(self):
        # Per-level qualities: CLASS_TIGHT (5) > NAME_LOOSE (3).
        assert self.both(
            [("wafe.Form.label", "tight-class"), ("wafe*form.label", "loose-name")],
            "wafe form label", "Wafe Form Label") == "tight-class"

    def test_any_tight_beats_name_loose(self):
        assert self.both(
            [("wafe.?.label", "any-tight"), ("wafe*form.label", "name-loose")],
            "wafe form label", "Wafe Form Label") == "any-tight"

    def test_earlier_level_dominates_later_quality(self):
        # A name match at level 1 beats any number of better matches
        # deeper down (lexicographic, leftmost most significant).
        assert self.both(
            [("wafe.form*label", "shallow"), ("*form.quit.label", "deep")],
            "wafe form quit label", "Wafe Form Command Label") == "shallow"

    def test_skip_costs_beneath_everything(self):
        assert self.both(
            [("*label", "skips"), ("*Wafe*label", "class-then-skips")],
            "wafe form label", "Wafe Form Label") == "class-then-skips"

    def test_question_component_matching_literal_question(self):
        # A widget literally named "?" matches a "?" component as a
        # NAME, not as ANY (the naive matcher's elif order; the tree
        # must agree).
        assert self.both(
            [("wafe.?.label", "via-q")],
            "wafe ? label", "Wafe Form Label") == "via-q"

    def test_later_serial_wins_after_merge(self):
        db = XrmDatabase()
        db.put("*label", "first")
        other = XrmDatabase()
        other.put("*label", "second")
        db.merge(other)
        assert db.query(["w", "label"], ["W", "Label"]) == "second"
        assert query_naive(db, ["w", "label"], ["W", "Label"]) == "second"

    def test_loose_skip_depth(self):
        # "*quit.label" must reach quit at any depth.
        assert self.both(
            [("*quit.label", "deep")],
            "wafe outer inner quit label",
            "Wafe Form Form Command Label") == "deep"

    def test_entry_longer_than_query_never_matches(self):
        assert self.both(
            [("wafe.form.quit.label", "long")],
            "wafe form label", "Wafe Form Label") is None


class TestDifferential:
    """Randomized databases: the quark tree and the naive matcher must
    return identical answers -- the naive scan is the executable
    specification of the precedence rules."""

    NAMES = ["wafe", "form", "quit", "ok", "box", "w1", "w2", "?"]
    CLASSES = ["Wafe", "Form", "Command", "Label", "Box", "?"]
    COMPONENTS = NAMES + CLASSES + ["other"]

    def random_database(self, rng, entries):
        db = XrmDatabase()
        for serial in range(entries):
            depth = rng.randint(1, 4)
            spec_parts = []
            for level in range(depth):
                binding = rng.choice([".", "*"])
                component = rng.choice(self.COMPONENTS)
                if level == 0 and binding == ".":
                    spec_parts.append(component)
                else:
                    spec_parts.append(binding + component)
            db.put("".join(spec_parts), "v%d" % serial)
        return db

    def random_query(self, rng):
        depth = rng.randint(1, 5)
        names = [rng.choice(self.NAMES) for __ in range(depth)]
        classes = [rng.choice(self.CLASSES) for __ in range(depth)]
        return names, classes

    def test_engines_agree_on_random_databases(self):
        rng = random.Random(19930125)  # the USENIX '93 paper, pinned
        for __ in range(150):
            db = self.random_database(rng, rng.randint(1, 12))
            for __q in range(20):
                names, classes = self.random_query(rng)
                assert db.query(names, classes) == \
                    query_naive(db, names, classes), \
                    (names, classes,
                     [(e.bindings, e.components, e.value)
                      for e in db._entries])

    def test_engines_agree_after_incremental_merges(self):
        rng = random.Random(42)
        db = XrmDatabase()
        for round_no in range(30):
            extra = self.random_database(rng, rng.randint(1, 4))
            db.merge(extra)
            for __ in range(10):
                names, classes = self.random_query(rng)
                assert db.query(names, classes) == \
                    query_naive(db, names, classes)

    def test_naive_matcher_routes_every_lookup(self, wafe):
        # Widget creation and direct database queries both go through
        # the oracle once an app is patched, and answer as before.
        wafe.run_script("mergeResources *quit.label Bye *Label.width 77")
        database = wafe.app.database
        query = (["wafe", "quit", "label"], ["Wafe", "Command", "Label"])
        expected = database.query(*query)
        use_naive_matcher(wafe.app)
        searches = database.stats()["searches"]
        assert database.query(*query) == expected == "Bye"
        wafe.run_script("label l topLevel")
        assert wafe.run_script("gV l width") == "77"
        assert database.stats()["searches"] == searches


class TestSearchListCaching:
    def test_search_lists_are_memoised(self):
        db = XrmDatabase()
        db.put("*Command.background", "gray")
        nq = quark_list(["wafe", "quit"])
        cq = quark_list(["Wafe", "Command"])
        first = db.get_search_list(nq, cq)
        assert db.get_search_list(nq, cq) is first
        stats = db.stats()
        assert stats["searchlist_hits"] == 1
        assert stats["searchlist_misses"] == 1

    def test_mutation_invalidates_memoisation(self):
        db = XrmDatabase()
        db.put("*background", "old")
        nq = quark_list(["wafe", "quit"])
        cq = quark_list(["Wafe", "Command"])
        slist = db.get_search_list(nq, cq)
        assert db.search(slist, quark("background"), quark("Background")) \
            == "old"
        generation = db.generation
        db.put("*quit.background", "new")
        assert db.generation > generation
        slist = db.get_search_list(nq, cq)
        assert db.search(slist, quark("background"), quark("Background")) \
            == "new"

    def test_naive_oracle_bypasses_the_tree(self):
        db = XrmDatabase()
        db.put("*label", "x")
        assert query_naive(db, ["w", "label"], ["W", "Label"]) == "x"
        assert db.stats()["searches"] == 0  # tree path never ran


class TestGenerationInvalidation:
    """mergeResources after widget creation must affect widgets created
    afterwards -- the acceptance criterion for the generation counter."""

    def test_merge_affects_subsequent_widgets(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("command before f")
        wafe.run_script("mergeResources {*Command.label: Merged}")
        wafe.run_script("command after f")
        assert wafe.run_script("gV after label") == "Merged"
        # The earlier widget keeps its creation-time value.
        assert wafe.run_script("gV before label") == "before"

    def test_merge_visible_to_requeries_of_existing_widgets(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("command b f")
        widget = wafe.lookup_widget("b")
        assert wafe.app.query_resource(widget, "fresh", "Fresh") is None
        wafe.run_script("mergeResources *b.fresh value")
        assert wafe.app.query_resource(widget, "fresh", "Fresh") == "value"

    def test_app_name_change_invalidates_widget_cache(self, wafe):
        wafe.run_script("mergeResources {other*title: ForOther}")
        top = wafe.top_level
        assert wafe.app.query_resource(top, "title", "Title") is None
        wafe.app.app_name = "other"
        assert wafe.app.query_resource(top, "title", "Title") == "ForOther"

    def test_merge_resources_advisory_for_bad_specifier(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("mergeResources {bad.: oops\n*good: fine}")
        assert len(errors) == 1
        assert "invalid resource specifier" in errors[0]
        assert '"bad."' in errors[0]
        wafe.run_script("mergeResources {also.bad.} value")
        assert len(errors) == 2


class TestInfoXrmstats:
    def test_reports_counters(self, wafe):
        wafe.run_script("info xrmstats reset")
        wafe.run_script("mergeResources {*Command.label: X}")
        wafe.run_script("form f topLevel")
        wafe.run_script("command b f")
        stats = wafe.run_script("info xrmstats")
        fields = stats.split()
        pairs = dict(zip(fields[::2], fields[1::2]))
        assert int(pairs["entries"]) >= 1
        assert int(pairs["quarks"]) > 0
        assert int(pairs["searches"]) > 0
        assert int(pairs["generationBumps"]) >= 1
        assert 0.0 <= float(pairs["searchListHitRate"]) <= 1.0

    def test_reset(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("info xrmstats reset")
        stats = wafe.run_script("info xrmstats")
        fields = stats.split()
        pairs = dict(zip(fields[::2], fields[1::2]))
        assert pairs["searches"] == "0"
        assert pairs["searchListHits"] == "0"

    def test_wrong_args(self, wafe):
        from repro.tcl.errors import TclError

        with pytest.raises(TclError):
            wafe.run_script("info xrmstats bogus extra")


class TestTranslationIndex:
    def table(self):
        return parse_translation_table(
            "<Key>a: ka()\n"
            "<Btn1Down>: press()\n"
            "<Btn2Down>: press2()\n"
            "<EnterWindow>: enter()\n"
            "<Btn1Down>,<Btn1Up>: click()\n")

    def test_lookup_equals_linear_scan(self):
        table = self.table()
        events = [
            XEvent(xtypes.ButtonPress, None, button=1),
            XEvent(xtypes.ButtonPress, None, button=2),
            XEvent(xtypes.EnterNotify, None),
            XEvent(xtypes.KeyPress, None, keycode=198),
            XEvent(xtypes.Expose, None),
        ]
        for event in events:
            linear = None
            for production in table.productions:
                if production.matches(event):
                    linear = production.actions
                    break
            assert table.lookup(event) == linear

    def test_index_does_not_break_sequences(self):
        table = self.table()
        progress = {}
        press = XEvent(xtypes.ButtonPress, None, button=1)
        release = XEvent(xtypes.ButtonRelease, None, button=1)
        assert table.lookup_stateful(press, progress) == [("press", [])]
        assert progress  # the click() sequence is in flight
        assert table.lookup_stateful(release, progress) == [("click", [])]
        assert not progress  # completed sequences leave no state

    def test_unrelated_event_resets_in_flight_sequence(self):
        table = self.table()
        progress = {}
        press = XEvent(xtypes.ButtonPress, None, button=1)
        other = XEvent(xtypes.Expose, None)
        release = XEvent(xtypes.ButtonRelease, None, button=1)
        table.lookup_stateful(press, progress)
        # Expose is not indexed for any production start, but with a
        # sequence in flight the full table must be scanned to reset.
        assert table.lookup_stateful(other, progress) is None
        assert not progress
        assert table.lookup_stateful(release, progress) is None

    def test_set_values_translations_resets_progress(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script(
            "command b f translations {<Btn1Down>,<Btn1Up>: set()}")
        widget = wafe.lookup_widget("b")
        widget._translation_progress = {12345: 1}  # an in-flight sequence
        wafe.run_script("sV b translations {<Btn1Down>: set()}")
        assert widget._translation_progress == {}


class TestShellGeometry:
    def test_geometry_resource_sizes_shell(self, wafe):
        wafe.run_script("mergeResources {wafe.geometry: 321x87+10+20}")
        wafe.run_script("label l topLevel label Hi")
        wafe.run_script("realize")
        shell = wafe.top_level
        assert shell.resources["width"] == 321
        assert shell.resources["height"] == 87
        assert shell.resources["x"] == 10
        assert shell.resources["y"] == 20

    def test_merge_between_create_and_realize_still_applies(self, wafe):
        # The shell exists since frontend construction; the merge must
        # still reach it when it realizes (generation revalidation).
        wafe.run_script("label l topLevel label Hi")
        wafe.run_script("mergeResources {wafe.geometry: 200x100}")
        wafe.run_script("realize")
        shell = wafe.top_level
        assert shell.resources["width"] == 200
        assert shell.resources["height"] == 100

    def test_malformed_geometry_ignored(self, wafe):
        wafe.run_script("mergeResources {wafe.geometry: bananas}")
        wafe.run_script("label l topLevel label Hi")
        wafe.run_script("realize")  # must not raise
        assert wafe.top_level.resources["width"] >= 1
