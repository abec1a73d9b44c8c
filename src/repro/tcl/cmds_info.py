"""Introspection commands: ``info`` and ``array``."""

from repro.tcl.errors import TclError
from repro.tcl.lists import list_to_string, string_to_list
from repro.tcl.cmds_string import glob_match

TCL_VERSION = "7.0"
TCL_PATCHLEVEL = "7.0 (repro)"


def _wrong_args(usage):
    raise TclError('wrong # args: should be "%s"' % usage)


def cmd_info(interp, argv):
    if len(argv) < 2:
        _wrong_args("info option ?arg arg ...?")
    option = argv[1]
    if option == "exists":
        if len(argv) != 3:
            _wrong_args("info exists varName")
        return "1" if interp.var_exists(argv[2]) else "0"
    if option == "commands":
        names = sorted(interp.commands)
        if len(argv) == 3:
            names = [n for n in names if glob_match(argv[2], n)]
        return list_to_string(names)
    if option == "procs":
        names = sorted(interp.procs)
        if len(argv) == 3:
            names = [n for n in names if glob_match(argv[2], n)]
        return list_to_string(names)
    if option == "body":
        if len(argv) != 3:
            _wrong_args("info body procname")
        proc = interp.procs.get(argv[2])
        if proc is None:
            raise TclError('"%s" isn\'t a procedure' % argv[2])
        return proc.body
    if option == "args":
        if len(argv) != 3:
            _wrong_args("info args procname")
        proc = interp.procs.get(argv[2])
        if proc is None:
            raise TclError('"%s" isn\'t a procedure' % argv[2])
        return list_to_string([name for name, _default in proc.formals])
    if option == "default":
        if len(argv) != 5:
            _wrong_args("info default procname arg varname")
        proc = interp.procs.get(argv[2])
        if proc is None:
            raise TclError('"%s" isn\'t a procedure' % argv[2])
        for name, default in proc.formals:
            if name == argv[3]:
                if default is None:
                    interp.set_var(argv[4], "")
                    return "0"
                interp.set_var(argv[4], default)
                return "1"
        raise TclError(
            'procedure "%s" doesn\'t have an argument "%s"' % (argv[2], argv[3])
        )
    if option == "globals":
        names = sorted(interp.global_frame.vars)
        if len(argv) == 3:
            names = [n for n in names if glob_match(argv[2], n)]
        return list_to_string(names)
    if option == "locals":
        frame = interp.current_frame
        if frame is interp.global_frame:
            return ""
        names = sorted(n for n, v in frame.vars.items() if v.kind != 2)
        if len(argv) == 3:
            names = [n for n in names if glob_match(argv[2], n)]
        return list_to_string(names)
    if option == "vars":
        names = sorted(interp.current_frame.vars)
        if len(argv) == 3:
            names = [n for n in names if glob_match(argv[2], n)]
        return list_to_string(names)
    if option == "level":
        if len(argv) == 2:
            return str(interp.current_frame.level)
        frame = interp.frame_at_level("#" + argv[2] if not argv[2].startswith("#") else argv[2])
        return list_to_string(frame.argv)
    if option == "cmdcount":
        return str(interp.cmd_count)
    if option == "cachestats":
        # ``info cachestats ?reset?``: hit/miss/eviction counters for
        # the parse, bytecode, and expr caches (the compilation layer's
        # introspection hook; the bench harness reads the same numbers
        # through interp.cache_stats()).
        if len(argv) == 3 and argv[2] == "reset":
            interp.reset_cache_stats()
            return ""
        if len(argv) != 2:
            _wrong_args("info cachestats ?reset?")
        rows = []
        for cache_name, stats in sorted(interp.cache_stats().items()):
            rows.append(cache_name)
            rows.append(list_to_string([
                "hits", str(stats["hits"]),
                "misses", str(stats["misses"]),
                "evictions", str(stats["evictions"]),
                "size", str(stats["size"]),
                "maxsize", str(stats["maxsize"]),
                "hitrate", "%.4f" % stats["hit_rate"],
            ]))
        return list_to_string(rows)
    if option == "evalstats":
        # ``info evalstats ?reset?``: the fault-containment counters --
        # configured limits, watchdog/recursion trips, peak nesting,
        # and Python-exception firewall catches (docs/ROBUSTNESS.md).
        if len(argv) == 3 and argv[2] == "reset":
            interp.reset_eval_stats()
            return ""
        if len(argv) != 2:
            _wrong_args("info evalstats ?reset?")
        stats = interp.eval_stats()
        trips = stats["limit_trips"]
        return list_to_string([
            "commands", str(stats["cmd_count"]),
            "recursionLimit", str(stats["recursion_limit"]),
            "peakNesting", str(stats["peak_nesting"]),
            "timeLimitMs", str(stats["time_limit_ms"]),
            "commandLimit", str(stats["command_limit"]),
            "commandTrips", str(trips["commands"]),
            "timeTrips", str(trips["time"]),
            "recursionTrips", str(trips["recursion"]),
            "firewallCatches", str(stats["firewall_catches"]),
            "hiddenCommands", str(stats["hidden_commands"]),
        ])
    if option == "hidden":
        # Safe-Tcl introspection: the commands hidden from this
        # interpreter (``interp hidden`` in real Tcl).
        names = sorted(interp.hidden_commands)
        if len(argv) == 3:
            names = [n for n in names if glob_match(argv[2], n)]
        return list_to_string(names)
    if option == "tclversion":
        return TCL_VERSION
    if option == "patchlevel":
        return TCL_PATCHLEVEL
    if option == "library":
        return ""
    if option == "script":
        return getattr(interp, "script_name", "")
    # Embedder extensions (Wafe registers ``info xrmstats`` here, the
    # Xrm counterpart of ``info cachestats``).
    extensions = getattr(interp, "info_extensions", {})
    extension = extensions.get(option)
    if extension is not None:
        return extension(interp, argv)
    options = sorted([
        "args", "body", "cachestats", "cmdcount", "commands", "default",
        "evalstats", "exists", "globals", "hidden", "level", "library",
        "locals", "patchlevel", "procs", "script", "tclversion", "vars",
    ] + list(extensions))
    raise TclError(
        'bad option "%s": should be %s, or %s'
        % (option, ", ".join(options[:-1]), options[-1])
    )


def cmd_array(interp, argv):
    if len(argv) < 3:
        _wrong_args("array option arrayName ?arg ...?")
    option, name = argv[1], argv[2]
    table = interp.array_of(name)
    if option == "exists":
        return "1" if table is not None else "0"
    if option == "names":
        if table is None:
            return ""
        names = sorted(table)
        if len(argv) == 4:
            names = [n for n in names if glob_match(argv[3], n)]
        return list_to_string(names)
    if option == "size":
        return str(len(table)) if table is not None else "0"
    if option == "get":
        if table is None:
            return ""
        pairs = []
        for key in sorted(table):
            if len(argv) == 4 and not glob_match(argv[3], key):
                continue
            pairs.extend([key, table[key]])
        return list_to_string(pairs)
    if option == "set":
        if len(argv) != 4:
            _wrong_args("array set arrayName list")
        items = string_to_list(argv[3])
        if len(items) % 2 != 0:
            raise TclError("list must have an even number of elements")
        for i in range(0, len(items), 2):
            interp.set_var(name, items[i + 1], index=items[i])
        return ""
    if option == "unset":
        if table is not None:
            if len(argv) == 4:
                for key in [k for k in table if glob_match(argv[3], k)]:
                    del table[key]
            else:
                interp.unset_var(name)
        return ""
    raise TclError(
        'bad option "%s": should be exists, get, names, set, size, or unset'
        % option
    )


def register(interp):
    interp.register("info", cmd_info)
    interp.register("array", cmd_array)
