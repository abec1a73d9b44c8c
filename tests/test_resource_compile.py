"""Compiled widget-class resources and the resolved-value memo.

Widget creation copies a compiled creation record -- every class and
constraint resource resolved from the database (or its default) and
converted -- memoised per widget class, parent class, application
name/class and name/class path (repro.xt.widget).  These tests pin
that memo against the reference: on seeded random databases, with
``mergeResources`` and converter re-registration interleaved, every
resource of every Athena class must equal a per-resource
``tests/oracles/xrm.query_naive`` query plus conversion.  They also pin
what must never be shared between two widgets.
"""

import random

import pytest

from repro.core import make_wafe
from repro.tcl.errors import TclError
from repro.xlib import close_all_displays
from repro.xlib.fonts import Font
from repro.xt import resources as R
from repro.xt.callbacks import CallbackList
from repro.xt.converters import _to_dimension, _to_int
from repro.xt.translations import (
    TranslationTable,
    merge_tables,
    parse_translation_table,
)
from repro.xt.widget import Widget
from tests.oracles.xrm import query_naive


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


def pairs_of(text):
    fields = text.split()
    return dict(zip(fields[::2], fields[1::2]))


# ----------------------------------------------------------------------
# The reference: one naive query plus one conversion per resource

#: Database values per representation type; the last of each list
#: fails to convert.  Types without a pool (pixmaps, widget references,
#: pointers, ...) are never put into the random databases.
POOLS = {
    R.R_INT: ["0", "3", "17", "0x10", "-2", "x1"],
    R.R_POSITION: ["0", "5", "-7", "nowhere"],
    R.R_DIMENSION: ["0", "5", "40", "-3"],
    R.R_BOOLEAN: ["true", "False", "on", "0", "maybe"],
    R.R_PIXEL: ["red", "gray75", "#00ff00", "XtDefaultForeground",
                "nocolor"],
    R.R_FONT: ["fixed", "9x15", "XtDefaultFont", "nofont-at-all"],
    R.R_STRING: ["alpha", "two words"],
    R.R_JUSTIFY: ["left", "center", "right", "middle"],
    R.R_ORIENTATION: ["horizontal", "vertical", "diagonal"],
    R.R_EDIT_MODE: ["edit", "read", "textAppend", "scribble"],
    R.R_FLOAT: ["0.25", "1.5", "abc"],
    R.R_CALLBACK: ["echo hi", "echo %w"],
    R.R_TRANSLATIONS: ["#override\n<Btn1Down>: set()",
                       "#augment\n<Key>a: notify()",
                       "<EnterWindow>: highlight()",
                       "<Bogus>: x()"],
}
POOLS[R.R_ACCELERATORS] = POOLS[R.R_TRANSLATIONS]

#: Resource names whose values the widgets' own initialize hooks read
#: as widget references or sizes of other structures; kept out of the
#: random databases so a creation only fails through conversion.
SKIP = {"fromVert", "fromHoriz", "numberStrings", "longest"}

PARENTS = {"f": "Form", "p": "Paned", "b": "Box"}
MENU_ENTRIES = ("Sme", "SmeBSB", "SmeLine")
NAMES = ("w0", "w1", "w2")


def default_value(resource, converters, widget):
    default = resource.default
    if isinstance(default, str) and converters.has(resource.type):
        return converters.convert(widget, resource.type, default)
    if resource.type == R.R_CALLBACK and default is None:
        return CallbackList()
    return default


def reference(wafe, widget, args):
    """(resources, constraints, first conversion error) for ``widget``,
    each resource looked up by the naive matcher on its own."""
    app = wafe.app
    converters = app.converters
    names = [app.app_name] + widget.name_path()[1:]
    classes = [app.app_class] + widget.class_path()[1:]
    constraint_map = widget.parent.class_constraint_map()
    error = None
    halves = []
    for resources in (widget.class_resources(), constraint_map.values()):
        values = {}
        for resource in resources:
            if resource.name in args:
                raw = args[resource.name]
            else:
                raw = query_naive(app.database, names + [resource.name],
                                  classes + [resource.class_])
            try:
                if raw is None:
                    values[resource.name] = default_value(
                        resource, converters, widget)
                else:
                    values[resource.name] = converters.convert(
                        widget, resource.type, raw)
            except TclError as err:
                if error is None:
                    error = str(err)
        halves.append(values)
    resources, constraints = halves
    source = type(widget).DEFAULT_TRANSLATIONS
    base = parse_translation_table(source) if source else None
    given = resources.get("translations")
    resources["translations"] = (merge_tables(base, given)
                                 if given is not None else base)
    if resources.get("destroyCallback") is None:
        resources["destroyCallback"] = CallbackList()
    return resources, constraints, error


def canon(value):
    """Values compared by content: callback lists and tables are fresh
    objects on the reference side."""
    if isinstance(value, CallbackList):
        return ("callbacks", value.source)
    if isinstance(value, TranslationTable):
        return ("table", value.directive,
                tuple(p.source for p in value.productions))
    if isinstance(value, Font):
        return ("font", value.name)
    return value


def canon_all(values):
    return {name: canon(value) for name, value in values.items()}


class Recorder:
    """Records the args each widget was initialized with and snapshots
    what _initialize_resources produced, before the class initialize
    hooks run; remembers the last widget to start converting; counts
    record compilations."""

    def __init__(self, monkeypatch):
        self.args = {}
        self.snapshots = {}
        self.last = None
        self.compiled = 0
        initialize = Widget._initialize_resources
        compile_record = Widget._compile_record

        def recording_initialize(widget, args):
            self.args[id(widget)] = dict(args)
            self.last = widget
            initialize(widget, args)
            self.snapshots[id(widget)] = (dict(widget.resources),
                                          dict(widget.constraints))

        def counting_compile(widget, constraint_map):
            self.compiled += 1
            return compile_record(widget, constraint_map)

        monkeypatch.setattr(Widget, "_initialize_resources",
                            recording_initialize)
        monkeypatch.setattr(Widget, "_compile_record", counting_compile)


# ----------------------------------------------------------------------
# Differential: memoised creation == per-resource naive lookups


class TestDifferential:
    def resource_specs(self, wafe):
        """Every resource a random database entry may set."""
        seen = {}
        for klass in wafe.classes.values():
            for resource in list(klass.class_resources()) + list(
                    klass.class_constraint_map().values()):
                if resource.type in POOLS and resource.name not in SKIP:
                    seen[resource.name] = resource
        return sorted(seen.values(), key=lambda r: r.name)

    def random_entry(self, rng, specs, wafe):
        resource = rng.choice(specs)
        components = (["wafe", "?"] + list(PARENTS) + ["m"] + list(NAMES)
                      + ["Wafe"] + list(PARENTS.values())
                      + sorted(wafe.classes))
        parts = []
        for level in range(rng.randint(0, 3)):
            binding = rng.choice(".*")
            component = rng.choice(components)
            parts.append(component if level == 0 and binding == "."
                         else binding + component)
        last = rng.choice([resource.name, resource.name, resource.class_])
        parts.append(rng.choice(".*") + last if parts else "*" + last)
        return "".join(parts), rng.choice(POOLS[resource.type])

    def merge(self, rng, specs, wafe, count):
        text = "\n".join("%s: %s" % self.random_entry(rng, specs, wafe)
                         for __ in range(count))
        wafe.app.merge_resources(text)

    def random_args(self, rng, klass, parent_class):
        """A few explicit args, always convertible (the first value of
        each pool)."""
        candidates = [r for r in list(klass.class_resources()) + list(
            parent_class.class_constraint_map().values())
            if r.type in POOLS and r.name not in SKIP
            and r.type not in (R.R_CALLBACK, R.R_TRANSLATIONS,
                               R.R_ACCELERATORS)]
        args = {}
        for __ in range(rng.randint(0, 2)):
            resource = rng.choice(candidates)
            args[resource.name] = POOLS[resource.type][0]
        return args

    @pytest.mark.parametrize("seed", [1993, 7, 31337])
    def test_creations_equal_naive_lookups(self, seed, monkeypatch):
        close_all_displays()
        wafe = make_wafe()
        rng = random.Random(seed)
        specs = self.resource_specs(wafe)
        wafe.run_script("form f topLevel; paned p f; box b f; "
                        "simpleMenu m f")
        recorder = Recorder(monkeypatch)
        self.merge(rng, specs, wafe, 40)
        converters = wafe.app.converters
        creations = failures = 0
        for step in range(240):
            roll = rng.random()
            if roll < 0.06:
                self.merge(rng, specs, wafe, rng.randint(1, 4))
            elif roll < 0.09:
                # Re-register Int and Dimension with other semantics (or
                # back): values memoised under the old ones are stale.
                if rng.random() < 0.5:
                    converters.register(R.R_DIMENSION, _to_dimension)
                    converters.register(R.R_INT, _to_int)
                else:
                    converters.register(
                        R.R_DIMENSION,
                        lambda w, v: 2 * _to_dimension(w, v))
                    converters.register(
                        R.R_INT, lambda w, v: _to_int(w, v) + 1)
            if step == 0 or rng.random() < 0.6:
                # A new path; otherwise the previous one again.
                class_name = rng.choice(sorted(wafe.classes))
                parent = ("m" if class_name in MENU_ENTRIES
                          else rng.choice(sorted(PARENTS)))
                name = rng.choice(NAMES)
            klass = wafe.classes[class_name]
            args = self.random_args(rng, klass,
                                    type(wafe.lookup_widget(parent)))
            argv = ["create", name, parent]
            for key, value in args.items():
                argv += [key, value]
            creations += 1
            try:
                wafe.create_widget(class_name, argv)
            except TclError as err:
                failures += 1
                # The widget that failed is the last one to start
                # converting: the new widget, or a child its initialize
                # hook was making (Dialog builds its label and value
                # that way).  The failed create leaves no child behind.
                failed = recorder.last
                expected_error = reference(
                    wafe, failed, recorder.args[id(failed)])[2]
                assert str(err) == expected_error, (step, class_name)
                assert name not in [child.name for child in
                                    wafe.lookup_widget(parent).children]
                continue
            widget = wafe.lookup_widget(name)
            resources, constraints = recorder.snapshots[id(widget)]
            want_resources, want_constraints, error = reference(
                wafe, widget, args)
            assert error is None, (step, class_name, error)
            assert canon_all(resources) == canon_all(want_resources), \
                (step, class_name, parent, name)
            assert canon_all(constraints) == canon_all(want_constraints), \
                (step, class_name, parent, name)
            wafe.run_script("destroyWidget %s" % name)
        # The memo did serve repeated paths, and the corpus does
        # exercise failing conversions.
        assert recorder.compiled < 0.9 * creations
        assert 0 < failures < creations


# ----------------------------------------------------------------------
# What is never shared


class TestSharing:
    def test_translation_merges_do_not_leak_to_siblings(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script(
            "command c1 f translations {#override\n<Key>a: set()}")
        wafe.run_script("command c2 f")
        wafe.run_script("action c2 augment {<Key>b: notify()}")
        wafe.run_script("command c3 f")
        c1, c2, c3 = (wafe.lookup_widget(n) for n in ("c1", "c2", "c3"))
        default = c3.class_translations()
        assert c3["translations"] is default
        assert len(c1["translations"]) == len(default) + 1
        assert len(c2["translations"]) == len(default) + 1
        assert c1["translations"] is not c2["translations"]
        sources = [p.source for p in default.productions]
        assert "<Key>a: set()" not in sources
        assert "<Key>b: notify()" not in sources

    def test_set_values_does_not_reach_database_siblings(self, wafe):
        wafe.run_script(
            "mergeResources {*Command.translations} "
            "{#override\n<Btn1Down>,<Btn1Up>: set()}")
        wafe.run_script("form f topLevel; command c1 f; command c2 f")
        c1, c2 = wafe.lookup_widget("c1"), wafe.lookup_widget("c2")
        before = [p.source for p in c2["translations"].productions]
        wafe.run_script("sV c1 translations {#augment\n<Key>a: set()}")
        assert [p.source for p in c2["translations"].productions] == before
        assert len(c1["translations"]) == len(before) + 1

    def test_two_instances_never_share_callback_lists(self, wafe):
        wafe.run_script("mergeResources {*Command.callback} {echo db}")
        wafe.run_script("form f topLevel")
        form, command = wafe.lookup_widget("f"), wafe.classes["Command"]
        a, b = command("c", form), command("c", form)  # one path, twice
        for name in ("callback", "destroyCallback"):
            assert a[name] is not b[name]
        assert a["callback"].source == b["callback"].source == "echo db"
        a.add_callback("callback", lambda w, d: None, "extra")
        a.add_callback("destroyCallback", lambda w, d: None, "bye")
        assert b["callback"].source == "echo db"
        assert command("c", form)["destroyCallback"].source == ""

    def test_failed_conversion_raises_on_every_creation(self, wafe):
        wafe.run_script("mergeResources *Label.width abc")
        wafe.run_script("form f topLevel")
        for name in ("l1", "l1", "l2"):
            with pytest.raises(TclError, match='"abc" to Int'):
                wafe.run_script("label %s f" % name)
        # An explicit value overrides the bad database entry.
        wafe.run_script("label l3 f width 9")
        assert wafe.run_script("gV l3 width") == "9"

    def test_repeated_path_is_a_memo_hit(self, wafe):
        wafe.run_script("mergeResources *Label.foreground navy")
        wafe.run_script("form f topLevel; label l f; destroyWidget l")
        searches = wafe.app.database.stats()["searches"]
        wafe.run_script("label l f")
        assert wafe.app.database.stats()["searches"] == searches
        assert wafe.run_script("gV l foreground") == "#000080"
        stats = pairs_of(wafe.run_script("info stats xt.xrm.*"))
        assert int(stats["xt.xrm.creation_records"]) >= 2

    def test_merge_drops_the_memo(self, wafe):
        wafe.run_script("form f topLevel; label l f; destroyWidget l")
        assert wafe.app.database.stats()["creation_records"] > 0
        wafe.run_script("mergeResources *l.width 33")
        assert wafe.app.database.stats()["creation_records"] == 0
        wafe.run_script("label l f")
        assert wafe.run_script("gV l width") == "33"

    def test_converter_registration_invalidates(self, wafe):
        wafe.run_script("mergeResources *Label.width 7")
        wafe.run_script("form f topLevel; label a f; destroyWidget a")
        wafe.app.converters.register(
            R.R_DIMENSION, lambda w, v: 2 * _to_dimension(w, v))
        wafe.run_script("label a f")
        assert wafe.run_script("gV a width") == "14"

    def test_app_name_is_part_of_the_key(self, wafe):
        wafe.run_script("mergeResources {other*Label.width} 9")
        wafe.run_script("form f topLevel; label l f; destroyWidget l")
        wafe.app.app_name = "other"
        wafe.run_script("label l f")
        assert wafe.run_script("gV l width") == "9"
