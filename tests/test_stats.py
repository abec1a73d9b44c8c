"""``info stats``: the one counter ledger, over every registered source.

The same checks run against a bare interpreter, a standalone Wafe and a
live server session: every source appears, every ``source.key`` value
is the Python snapshot's, the pattern filters, ``-reset`` zeroes in
place, and a shared source refuses the reset without a partial one.
"""

import socket

import pytest

from repro.core import make_wafe
from repro.server import WafeServer
from repro.tcl import Interp, string_to_list
from repro.tcl.cmds_string import glob_match
from repro.tcl.errors import TclError
from repro.xlib import close_all_displays

TCL_SOURCES = {"tcl.parse", "tcl.bytecode", "tcl.expr", "tcl.eval", "tcl.vm"}
WAFE_SOURCES = TCL_SOURCES | {"xt.xrm", "xt.event", "xlib.render",
                              "core.channel"}

#: Per source, counters that ``-reset`` must bring back to zero.
COUNTERS = {
    "tcl.parse": ("hits", "misses", "evictions"),
    "tcl.bytecode": ("hits", "misses", "evictions"),
    "tcl.eval": ("firewall_catches", "trips_commands", "trips_time",
                 "trips_recursion"),
    "tcl.vm": ("scripts", "inline_ops", "generic_ops", "deopts"),
    "xt.xrm": ("searches", "searchlist_hits", "searchlist_misses",
               "generation_bumps"),
    "xt.event": ("dispatches", "polls", "registered", "timers_fired"),
    "xlib.render": ("damage_rects", "damage_pixels", "draw_calls",
                    "drawn_pixels", "expose_events"),
    "core.channel": ("sends", "pipe_writes", "bytes_written"),
}


class Context:
    """One interpreter under test plus what it must expose."""

    def __init__(self, interp, sources, shared, wafe=None, session=None):
        self.interp = interp
        self.sources = sources
        self.shared = shared
        self.wafe = wafe
        self.session = session

    def info_stats(self, *args):
        # Straight to the command: reading must not move the counters
        # it reports (an eval would bump the parse and eval counters).
        return self.interp.commands["info"](self.interp,
                                            ["info", "stats"] + list(args))

    def pairs(self, *args):
        items = string_to_list(self.info_stats(*args))
        return dict(zip(items[::2], items[1::2]))

    def warm(self):
        script = "set x 0; for {set i 0} {$i < 5} {incr i} {incr x}"
        for __ in range(3):
            self.interp.eval(script)
        if self.wafe is not None:
            self.wafe.run_script(
                "label l topLevel label warm\nrealize\nsync\ngV l label")


def _bare():
    return Context(Interp(), TCL_SOURCES, {"tcl.expr"}), None


def _standalone():
    close_all_displays()
    wafe = make_wafe()
    return Context(wafe.interp, WAFE_SOURCES, {"tcl.expr"}, wafe=wafe), None


def _server_session():
    close_all_displays()
    server = WafeServer()
    host, port = server.listen_tcp("127.0.0.1", 0)
    client = socket.create_connection((host, port))
    for __ in range(30):
        server.run_once(timeout=0.005)
        if server.sessions:
            break
    session = next(iter(server.sessions.values()))
    context = Context(session.wafe.interp, WAFE_SOURCES | {"server"},
                      {"tcl.expr", "server", "xt.event"},
                      wafe=session.wafe, session=session)

    def close():
        client.close()
        server.shutdown()

    return context, close


@pytest.fixture(params=[_bare, _standalone, _server_session],
                ids=["interp", "wafe", "session"])
def ctx(request):
    context, close = request.param()
    context.warm()
    yield context
    if close is not None:
        close()


def _formatted(value):
    return "%.4f" % value if isinstance(value, float) else str(value)


class TestInfoStats:
    def test_every_source_appears(self, ctx):
        assert set(ctx.interp.stats_sources) == ctx.sources
        reported = {key.rsplit(".", 1)[0] for key in ctx.pairs()}
        assert reported == ctx.sources

    def test_values_are_the_python_snapshots(self, ctx):
        reported = ctx.pairs()
        expected = {}
        for source, (snapshot, __) in ctx.interp.stats_sources.items():
            for key, value in snapshot().items():
                expected["%s.%s" % (source, key)] = _formatted(value)
        assert reported == expected

    def test_list_is_sorted_and_array_settable(self, ctx):
        keys = string_to_list(ctx.info_stats())[::2]
        assert keys == sorted(keys)
        ctx.interp.eval("array set s [info stats]")
        assert ctx.interp.eval("info exists s(tcl.vm.scripts)") == "1"

    @pytest.mark.parametrize("pattern", ["*.hits", "tcl.eval.*", "xt.*",
                                         "*render*pixels", "nomatch"])
    def test_pattern_filters_on_the_dotted_key(self, ctx, pattern):
        everything = ctx.pairs()
        matched = ctx.pairs(pattern)
        assert matched == {key: value for key, value in everything.items()
                           if glob_match(pattern, key)}

    def test_reset_zeroes_in_place(self, ctx):
        sources = ctx.interp.stats_sources
        render = channel = None
        if ctx.wafe is not None:
            render = ctx.wafe.app.default_display.render_stats
            assert render["drawn_pixels"] > 0
        if ctx.session is not None:
            channel = ctx.session.stats
            ctx.session.send("x\n")
            assert channel["sends"] > 0
        for source in sorted(ctx.sources - ctx.shared):
            assert ctx.info_stats(source + ".*", "-reset") == ""
            snapshot = sources[source][0]()
            for key in COUNTERS[source]:
                assert snapshot[key] == 0, (source, key)
        if render is not None:
            assert ctx.wafe.app.default_display.render_stats is render
        if channel is not None:
            assert ctx.session.stats is channel

    def test_shared_source_refused_without_partial_reset(self, ctx):
        bytecode_hits = ctx.interp.bytecode_cache.hits
        assert bytecode_hits > 0
        for pattern in sorted(ctx.shared):
            with pytest.raises(TclError, match='cannot reset "%s"'
                               % pattern.replace(".", r"\.")):
                ctx.info_stats(pattern + ".*", "-reset")
        # Everything, or a key family spanning a shared source: refused
        # outright, so the resettable tcl.bytecode is left alone too.
        for args in ([], ["*.hits"]):
            with pytest.raises(TclError, match="shared beyond"):
                ctx.info_stats(*args, "-reset")
        assert ctx.interp.bytecode_cache.hits == bytecode_hits

    @pytest.mark.parametrize("args", [["a", "b"], ["a", "b", "-reset"],
                                      ["-reset", "a"]])
    def test_wrong_args(self, ctx, args):
        with pytest.raises(TclError, match=r'wrong # args: should be '
                           r'"info stats \?pattern\? \?-reset\?"'):
            ctx.info_stats(*args)
