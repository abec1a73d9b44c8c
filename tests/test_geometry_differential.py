"""Deferred geometry management: one layout pass per flush.

Managing, unmanaging or destroying a child, changing a constraint or
a Label growing only marks the parent's geometry dirty; the display's
next flush point lays every marked widget out once, ancestors first,
and geometry reads (``gV`` of x/y/width/height, synthesized pointer
events) run that pass before they look.

The differential at the bottom drives the same scripts through the
deferred pass and through eager layout (tests/oracles/geometry.py) and
asserts that at every flush checkpoint both give the same ``gV``
readbacks, window geometry, Map/Unmap/Destroy events and framebuffer
(which is also what a full repaint gives, tests/oracles/render.py),
with no more ConfigureNotify events than eager layout sends.
"""

import collections
import random

import pytest

from repro.core import make_wafe
from repro.tcl.errors import TclError
from repro.xaw.form import Form
from repro.xlib import close_all_displays, xtypes
from repro.xlib.display import Window
from tests.oracles.geometry import use_eager_geometry
from tests.oracles.render import full_repaint

GEOMETRY = ("x", "y", "width", "height")

#: The dialog_churn benchmark's operation: a form, eleven chained
#: children, two non-geometry reads and a destroy, in one line.
DIALOG_LINE = "; ".join(
    ["form dlg main fromVert title"]
    + ["%s d%d dlg %s {alpha bravo}%s" % (
        kind, i, "string" if kind == "asciiText" else "label",
        " fromVert d%d" % (i - 1) if i > 1 else "")
       for i, kind in enumerate(["label", "command", "asciiText"] * 4, 1)
       if i <= 11]
    + ["set a [gV d1 label]", "set b [gV d3 string]", "destroyWidget dlg"])


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


def counting(monkeypatch, owner, attr):
    """Count calls of ``owner.attr``; returns the live counter."""
    calls = collections.Counter()
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, attr, wrapper)
    return calls


class TestOnePassPerFlush:
    def setup_main(self, wafe):
        wafe.run_script(
            "form main topLevel width 520 height 420; "
            "label title main label {dialog churn} borderWidth 0; realize")

    def test_dialog_line_lays_out_once(self, wafe, monkeypatch):
        self.setup_main(wafe)
        layouts = counting(monkeypatch, Form, "layout")
        configures = counting(monkeypatch, Window, "configure")
        wafe.run_script(DIALOG_LINE)
        wafe.app.process_pending()
        # Eager layout ran Form.layout 15 times and Window.configure
        # 68 times for this line.
        assert layouts["layout"] <= 4
        assert configures["configure"] <= 2

    def test_creation_marks_and_flush_lays_out(self, wafe):
        self.setup_main(wafe)
        wafe.run_script("label a main label {one} fromVert title; "
                        "label b main label {two} fromVert a")
        b = wafe.lookup_widget("b")
        assert b.window.y == 0  # not laid out yet
        wafe.app.process_pending()
        assert b.window.y > wafe.lookup_widget("a").window.y > 0

    def test_geometry_read_forces_the_pass(self, wafe):
        self.setup_main(wafe)
        wafe.run_script("form dlg main fromVert title; "
                        "label d1 dlg label {one}; "
                        "label d2 dlg label {two} fromVert d1; "
                        "label d3 dlg label {three} fromVert d2")
        d2 = wafe.lookup_widget("d2")
        # Straight after creation, with no sync: the read runs the pass.
        y = int(wafe.run_script("gV d3 y"))
        assert y == d2.resources["y"] + d2.resources["height"] + \
            2 * d2.resources["borderWidth"] + 4
        wafe.app.process_pending()
        assert wafe.run_script("gV d3 y") == str(y)

    def test_pointer_event_forces_the_pass(self, wafe):
        self.setup_main(wafe)
        wafe.run_script("label a main label {one} fromVert title")
        a = wafe.lookup_widget("a")
        assert (a.window.x, a.window.y) == (0, 0)  # pending
        display = wafe.app.default_display
        # A click aimed inside where layout puts ``a`` (four pixels
        # below title's border box) must hit ``a``.
        title = wafe.lookup_widget("title").window
        ay = title.y + title.height + 2 * title.border_width + 4 + 2
        display.press_button(4 + 2, ay)
        assert display.pointer_window is a.window


class TestConstraintErrorsAreSynchronous:
    def test_unknown_sibling_fails_its_own_create(self, wafe):
        wafe.run_script("form main topLevel; label a main; realize")
        with pytest.raises(TclError,
                           match='constraint refers to unknown sibling '
                                 '"nosuch"'):
            wafe.run_script("label b main fromVert nosuch")
        with pytest.raises(TclError, match='no such widget "b"'):
            wafe.run_script("gV b x")
        # The form still lays out: later children are unaffected and
        # the next flush raises nothing.
        wafe.run_script("label c main fromVert a")
        wafe.run_script("sync")
        assert int(wafe.run_script("gV c y")) > int(wafe.run_script("gV a y"))

    def test_unknown_sibling_before_realize(self, wafe):
        wafe.run_script("form main topLevel")
        with pytest.raises(TclError, match="unknown sibling"):
            wafe.run_script("label b main fromHoriz nosuch")
        wafe.run_script("realize")

    def test_unknown_sibling_fails_its_own_set_values(self, wafe):
        wafe.run_script("form main topLevel; label a main; "
                        "label b main fromVert a; realize")
        before = wafe.run_script("gV b y")
        with pytest.raises(TclError, match="unknown sibling"):
            wafe.run_script("sV b fromVert nosuch")
        wafe.run_script("sync")
        assert wafe.run_script("gV b fromVert") == "a"
        assert wafe.run_script("gV b y") == before

    def test_empty_name_clears_the_attachment(self, wafe):
        wafe.run_script("form main topLevel; label a main; "
                        "label b main fromVert a; realize")
        wafe.run_script("sV b fromVert {}")
        assert wafe.run_script("gV b y") == wafe.run_script("gV a y")


class TestDestroyedConstraintTarget:
    def test_destroy_relayouts_and_unsets_the_reference(self, wafe):
        wafe.run_script("form main topLevel; label a main; "
                        "label b main fromVert a; realize")
        assert wafe.run_script("gV b y") == "31"
        wafe.run_script("destroyWidget a")
        # Destroy unmanages first, so the form lays out again and b,
        # attached to a destroyed sibling, moves to the form's edge.
        assert wafe.run_script("gV b y") == "4"
        wafe.run_script("label c main")  # no stale sibling error
        wafe.run_script("sync")
        assert wafe.run_script("gV c y") == "4"


# ----------------------------------------------------------------------
# The differential: deferred pass vs eager layout at every checkpoint.

STRUCTURE = (xtypes.MapNotify, xtypes.UnmapNotify, xtypes.DestroyNotify)


class Run:
    """One Wafe driven through a scenario, recording what the
    differential compares.  Windows are keyed by their widget's name
    path (and how many windows that path had before), so two runs with
    different window ids line up."""

    def __init__(self, display_name, eager):
        self.wafe = make_wafe(display_name=display_name)
        app = self.wafe.app
        display = app.default_display
        if eager:
            use_eager_geometry(display)
        self.keys = {}
        self.seen = collections.Counter()
        register = app.register_window

        def record_window(window, widget):
            path = ".".join(widget.name_path())
            self.keys[window] = (path, self.seen[path])
            self.seen[path] += 1
            register(window, widget)
        app.register_window = record_window
        display.event_hook = self.record_event
        self.structure = collections.defaultdict(list)
        self.last_configure = {}
        self.configures = 0  # ConfigureNotify events so far

    def record_event(self, event):
        key = self.keys.get(event.window)
        if key is None:
            return
        window = event.window
        if event.type == xtypes.ConfigureNotify:
            self.configures += 1
            self.last_configure[key] = window_geometry(window)
        elif event.type in STRUCTURE:
            self.structure[key].append(event.type)

    def shown(self, name):
        widget = self.wafe.widgets.get(name)
        return (widget is not None and widget.window is not None
                and widget.window.viewable())

    def step(self, commands):
        """Run one batch (recording each command's result or error),
        sync, and return the checkpoint."""
        results = []
        for command in commands:
            words = command.split()
            if words[0] == "gV" and not self.shown(words[1]):
                # An unmanaged widget keeps the geometry of the last
                # layout it took part in, and the states between two
                # flushes are never laid out: not comparable.
                results.append("not shown")
                continue
            try:
                results.append(self.wafe.run_script(command))
            except TclError as err:
                results.append("error: %s" % err)
        self.wafe.run_script("sync")
        windows = {key: window_geometry(window)
                   for window, key in self.keys.items()
                   if window.viewable()}
        for key, geometry in self.last_configure.items():
            if key in windows:
                # The last ConfigureNotify carried the final geometry.
                assert geometry == windows[key], key
        checkpoint = {
            "results": results,
            "gV": {name: [self.wafe.run_script("gV %s %s" % (name, what))
                          for what in GEOMETRY]
                   for name in sorted(self.wafe.widgets)
                   if self.shown(name)},
            "windows": windows,
            "structure": dict(self.structure),
        }
        self.structure.clear()
        self.last_configure.clear()
        return checkpoint, self.configures

    def framebuffer(self):
        return self.wafe.app.default_display.screen.framebuffer


def window_geometry(window):
    return (window.x, window.y, window.width, window.height,
            window.border_width)


def assert_agree(batches):
    close_all_displays()
    deferred = Run(":geometry-deferred", eager=False)
    eager = Run(":geometry-eager", eager=True)
    for step, commands in enumerate(batches):
        got, got_configures = deferred.step(commands)
        want, want_configures = eager.step(commands)
        where = "step %d %r" % (step, commands)
        for part in ("results", "gV", "windows", "structure"):
            assert got[part] == want[part], "%s differs at %s" % (part,
                                                                  where)
        # Eager layout may configure a window in a state the deferred
        # pass never lays out (an unmanaged child, say), so the
        # ConfigureNotify count is compared over the run so far.
        assert got_configures <= want_configures, where
        assert (deferred.framebuffer() == eager.framebuffer()).all(), where
        assert (deferred.framebuffer()
                == full_repaint(deferred.wafe.app)).all(), where


# The damage-render corpus (tests/test_damage_render.py), one
# checkpoint per script.
RENDER_CORPUS = [
    [
        "form f topLevel width 200 height 120\n"
        "label a f label {one}\n"
        "label b f label {two} fromVert a\n"
        "realize",
        "setValues a label {uno}",
        "setValues b vertDistance 12",
        "setValues f width 260",
        "setValues a label {einszweidrei}",
    ],
    [
        "form f topLevel width 200 height 120\n"
        "label a f label {one}\n"
        "label b f label {two} fromVert a\n"
        "label c f label {three} fromVert b\n"
        "realize",
        "unmanageChild b",
        "manageChild b",
        "destroyWidget b",
        "setValues c label {drei}",
    ],
    [
        "form f topLevel width 200 height 120\n"
        "label a f label {one}\n"
        "realize",
        "label c f label {x} fromVert a; setValues c label {y}; "
        "destroyWidget c",
        "label d f label {x} fromVert a; setValues d label {yy}; "
        "unmanageChild d",
        "label e f label {x} fromVert a; setValues e label {y}; "
        "setValues e vertDistance 30",
    ],
    [
        "form f topLevel width 220 height 160\n"
        "label a f label {one}\n"
        "form g f fromVert a\n"
        "label b g label {two}\n"
        "label c g label {three} fromVert b\n"
        "realize",
        "setValues g horizDistance 40",
        "setValues g vertDistance 30",
        "unmanageChild g",
        "manageChild g",
        "destroyWidget g",
    ],
    [
        "label l topLevel label {hello} width 120 height 40\n"
        "command c topLevel x 10 y 50 label {press}\n"
        "realize",
        "destroyWidget c",
        "setValues l width 60",
    ],
]


class Scenario:
    """Random create/manage/unmanage/destroy/sV-constraint batches
    under a Form, a Box and a Paned, with Lists that request a resize
    and geometry reads between the writes."""

    SETUP = [
        "form main topLevel width 420 height 360; "
        "label title main label {title}; "
        "box bx main fromVert title width 180; "
        "paned pn main fromHoriz title; "
        "realize",
    ]
    WORDS = ("ok", "cancel", "apply", "a much longer label", "x",
             "two words")

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.count = 0
        self.parent = {}  # widget -> container
        self.kind = {"main": "form", "bx": "box", "pn": "paned"}
        self.forms = ["main"]

    def names(self, kind=None):
        return [name for name in self.parent
                if kind is None or self.kind[name] == kind]

    def text(self):
        return "{%s}" % self.rng.choice(self.WORDS)

    def sibling(self, child_of):
        """A fromVert/fromHoriz target: usually a live sibling,
        sometimes the empty name or one that does not exist."""
        rng = self.rng
        siblings = [name for name, parent in self.parent.items()
                    if parent == child_of] + ["title"] * (child_of == "main")
        pick = rng.random()
        if siblings and pick < 0.8:
            return rng.choice(siblings)
        return "{}" if pick < 0.9 else "nosuch"

    def create(self):
        rng = self.rng
        containers = ["main", "bx", "pn"] + self.forms[1:]
        parent = rng.choice(containers)
        kind = rng.choice(["label", "label", "command", "list", "form"]
                          if parent in self.forms else
                          ["label", "command", "list"])
        self.count += 1
        name = "w%d" % self.count
        args = ["%s %s %s" % (kind, name, parent)]
        if rng.random() < 0.1:
            args.append("-unmanaged")
        if kind == "list":
            args.append("list {%s}" % " ".join(
                rng.choice(self.WORDS[:3]) for __ in range(rng.randrange(
                    1, 4))))
        elif kind != "form":
            args.append("label %s" % self.text())
        if parent in self.forms:
            for constraint in ("fromVert", "fromHoriz"):
                if rng.random() < 0.5:
                    args.append("%s %s" % (constraint,
                                           self.sibling(parent)))
        self.parent[name] = parent
        self.kind[name] = kind
        if kind == "form":
            self.forms.append(name)
        return " ".join(args)

    def destroy(self, name):
        doomed = {name}
        for child, parent in list(self.parent.items()):
            if parent in doomed or child in doomed:
                doomed.add(child)
        for child in doomed:
            self.parent.pop(child, None)
            if child in self.forms:
                self.forms.remove(child)
        return "destroyWidget %s" % name

    def op(self):
        rng = self.rng
        live = self.names()
        if not live or rng.random() < 0.3:
            return self.create()
        name = rng.choice(live)
        parent = self.parent[name]
        choice = rng.randrange(8)
        if choice == 0:
            return "unmanageChild %s" % name
        if choice == 1:
            return "manageChild %s" % name
        if choice == 2:
            return self.destroy(name)
        if choice == 3 and parent in self.forms:
            return "sV %s %s %s" % (name, rng.choice(["fromVert",
                                                      "fromHoriz"]),
                                    self.sibling(parent))
        if choice == 4 and parent in self.forms:
            return "sV %s %s %d" % (name, rng.choice(["vertDistance",
                                                      "horizDistance"]),
                                    rng.randrange(0, 20))
        if choice == 5 and self.kind[name] == "list":
            return "listChange %s {%s} true" % (name, " ".join(
                rng.choice(self.WORDS) for __ in range(rng.randrange(
                    1, 6))))
        if choice == 6 and self.kind[name] in ("label", "command"):
            return "sV %s label %s" % (name, self.text())
        return "gV %s %s" % (name, rng.choice(GEOMETRY))

    def batches(self, steps=6):
        out = [self.SETUP]
        for __ in range(steps):
            out.append([self.op() for __ in range(self.rng.randrange(1,
                                                                     6))])
        return out


class TestEagerOracleDifferential:
    @pytest.mark.parametrize("case", range(len(RENDER_CORPUS)))
    def test_render_corpus_agrees(self, case):
        assert_agree([[script] for script in RENDER_CORPUS[case]])

    def test_dialog_line_agrees(self):
        assert_agree([
            ["form main topLevel width 520 height 420; "
             "label title main label {dialog churn} borderWidth 0; "
             "realize"],
            [DIALOG_LINE.replace("; destroyWidget dlg", "")],
            ["destroyWidget dlg"],
        ])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences_agree(self, seed):
        assert_agree(Scenario(seed).batches())
