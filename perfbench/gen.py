"""Seeded input generation for every workload.

One seed drives everything the program receives: dashboard label texts
and the plotter random walk, the click replies, the app-defaults
resource database and the dialog contents.  Each purpose draws from
its own ``random.Random`` stream (seeded with a string, which CPython
hashes deterministically), so the same seed gives byte-identical input
streams whatever order the streams are consumed in.

This module imports nothing from the program: the click backend child
uses it too.
"""

import random

#: The dashboard series grows to this many points, then wraps back to
#: two -- about one tick in WRAP forces a full plotter redraw.
WRAP = 120
DASH_LABELS = 4
#: The dashboard plot's fixed scale (minValue/maxValue), so an append
#: never rescales and takes the damage path.
PLOT_MIN, PLOT_MAX = 0.0, 100.0
#: Size of dialog_churn's app-defaults resource database.
XRM_ENTRIES = 200

_WORDS = (
    "alpha bravo cargo delta echo fjord gamma harbor index jungle kilo "
    "lambda metro nova orbit pilot quartz radio sierra tango ultra "
    "vector whiskey xenon yankee zulu amber basalt cobalt dune ember"
).split()
_COLORS = (
    "navy steelblue gray75 gray90 lightgray darkgreen royalblue "
    "cadetblue seagreen slateblue skyblue white black lightblue"
).split()


def stream(seed, purpose):
    """An independent deterministic random stream for one purpose."""
    return random.Random("perfbench:%d:%s" % (seed, purpose))


def words(rng, count):
    return " ".join(rng.choice(_WORDS) for __ in range(count))


class DashboardFeed:
    """One dashboard session: its UI script and its ticks.

    A tick is four ``sV`` label lines, one ``plotterSetData`` carrying
    the whole series with one appended random-walk point, and an
    ``echo`` token the client waits for.
    """

    def __init__(self, seed, session):
        self.session = session
        self.rng = stream(seed, "dashboard-%d" % session)
        self.value = 50.0
        self.series = [self._step(), self._step()]
        self.counters = [self.rng.randrange(10 ** 6) for __ in
                         range(DASH_LABELS)]
        self.labels = ["eth%d idle" % i for i in range(DASH_LABELS)]
        self.ticks = 0

    def _step(self):
        self.value += self.rng.gauss(0.0, 4.0)
        self.value = min(PLOT_MAX, max(PLOT_MIN, self.value))
        return "%.1f" % self.value

    def setup_lines(self):
        lines = ["%form f topLevel"]
        previous = None
        for i, text in enumerate(self.labels):
            chain = " fromVert %s" % previous if previous else ""
            lines.append("%%label l%d f label {%s} width 260 borderWidth 0"
                         " justify left%s" % (i, text, chain))
            previous = "l%d" % i
        lines.append(
            "%%lineGraph g f data {%s} minValue %g maxValue %g "
            "pointSpacing 3 width 400 height 120 fromVert %s"
            % (" ".join(self.series), PLOT_MIN, PLOT_MAX, previous))
        lines.append("%realize; echo built")
        return "".join(line + "\n" for line in lines).encode()

    def next_tick(self):
        """Returns (payload bytes, reply token)."""
        self.ticks += 1
        lines = []
        for i in range(DASH_LABELS):
            self.counters[i] += self.rng.randrange(1, 5000)
            # Fixed-width counters: every seed paints as many glyphs.
            self.labels[i] = "eth%d rx %07d %s" % (
                i, self.counters[i] % 10 ** 7, self.rng.choice(_WORDS))
            lines.append("%%sV l%d label {%s}" % (i, self.labels[i]))
        if len(self.series) >= WRAP:
            self.series = self.series[-1:]
        self.series.append(self._step())
        lines.append("%%plotterSetData g {%s}" % " ".join(self.series))
        token = "s%d-t%d" % (self.session, self.ticks)
        lines.append("%%echo %s" % token)
        return "".join(line + "\n" for line in lines).encode(), token

    def readback_lines(self):
        """Lines whose replies are the labels, then the series."""
        return ("%%echo %s\n%%echo [gV g data]\n" % "|".join(
            "[gV l%d label]" % i for i in range(DASH_LABELS))).encode()

    def expected_readback(self):
        return "|".join(self.labels), list(self.series)


def click_reply(seed, k):
    """The label text the click backend answers to the k-th press: a
    seeded number and its prime factors (the paper's primefactors)."""
    rng = stream(seed, "click-%d" % k)
    n = rng.randrange(10 ** 4, 10 ** 6)
    factors, m, p = [], n, 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return "%d = %s" % (n, " x ".join(str(f) for f in factors))


#: The click workload's UI: the program hosts it, the backend answers.
CLICK_SCRIPT = (
    "form f topLevel\n"
    "command b f label {Factor} callback {echo press %w}\n"
    "label result f label {ready} width 320 justify left fromVert b\n"
)


class DialogFeed:
    """dialog_churn: an app-defaults database and a stream of one-line
    create/read/destroy dialog operations."""

    CHILDREN = 11  # plus the form: a 12-widget dialog
    _KINDS = ("label", "command", "asciiText")

    def __init__(self, seed):
        self.seed = seed
        self.rng = stream(seed, "dialog")
        self.ops = 0

    def resource_pairs(self):
        """XRM_ENTRIES realistic app-defaults entries, some matching the
        dialog's widgets and many for widgets it never creates."""
        rng = stream(self.seed, "xrm")
        pairs = []
        for i in range(XRM_ENTRIES):
            pick = rng.randrange(6)
            if pick == 0:
                spec = "*dlg.d%d.background" % rng.randrange(1, 12)
                value = rng.choice(_COLORS)
            elif pick == 1:
                spec = "*%s.foreground" % rng.choice(
                    ("Label", "Command", "Text"))
                value = rng.choice(_COLORS)
            elif pick == 2:
                spec = "*dlg*d%d.borderWidth" % rng.randrange(1, 12)
                value = str(rng.randrange(0, 4))
            elif pick == 3:
                spec = "wafe.main.panel%d.item%d.label" % (i, rng.randrange(9))
                value = words(rng, 2)
            elif pick == 4:
                spec = "*menu%d*Command.background" % i
                value = rng.choice(_COLORS)
            else:
                spec = "*dlg*Label.justify"
                value = rng.choice(("left", "center", "right"))
            pairs.append((spec, value))
        return pairs

    def setup_lines(self):
        pairs = " ".join("%s {%s}" % pair for pair in self.resource_pairs())
        return (
            "%%mergeResources %s\n"
            "%%form main topLevel width 520 height 420\n"
            "%%label title main label {dialog churn} borderWidth 0\n"
            "%%realize; echo built\n" % pairs).encode()

    def next_op(self):
        """Returns (payload bytes, expected reply)."""
        self.ops += 1
        rng = self.rng
        parts = ["form dlg main fromVert title"]
        texts = {}
        previous = None
        for i in range(1, self.CHILDREN + 1):
            kind = self._KINDS[(i - 1) % 3]
            text = words(rng, rng.randrange(1, 4))
            texts[i] = (kind, text)
            resource = "string" if kind == "asciiText" else "label"
            chain = " fromVert d%d" % previous if previous else ""
            parts.append("%s d%d dlg %s {%s}%s"
                         % (kind, i, resource, text, chain))
            previous = i
        label_i = rng.choice([i for i in texts if texts[i][0] != "asciiText"])
        text_i = rng.choice([i for i in texts if texts[i][0] == "asciiText"])
        token = "k%d" % self.ops
        parts.append("set a [gV d%d label]" % label_i)
        parts.append("set b [gV d%d string]" % text_i)
        parts.append("destroyWidget dlg")
        parts.append('echo "%s|$a|$b"' % token)
        expected = "%s|%s|%s" % (token, texts[label_i][1], texts[text_i][1])
        return ("%" + "; ".join(parts) + "\n").encode(), expected
