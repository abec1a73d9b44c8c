"""Introspection commands: ``info`` and ``array``."""

from repro.tcl.bytecode import disassemble
from repro.tcl.compile import compile_script_bytecode
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
    if option == "stats":
        return _info_stats(interp, argv)
    if option == "bytecode":
        if len(argv) != 4 or argv[2] != "disassemble":
            _wrong_args("info bytecode disassemble script")
        parsed = interp.parse_cache.get(argv[3])
        # The listing explains the tcl.vm ledger, so its own compile
        # must not count in it.
        counts = dict(interp._vm_stats)
        try:
            code = compile_script_bytecode(parsed, argv[3], interp)
        finally:
            interp._vm_stats.update(counts)
        return disassemble(code)
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
    options = [
        "args", "body", "bytecode", "cmdcount", "commands", "default",
        "exists", "globals", "hidden", "level", "library", "locals",
        "patchlevel", "procs", "script", "stats", "tclversion", "vars",
    ]
    raise TclError(
        'bad option "%s": should be %s, or %s'
        % (option, ", ".join(options[:-1]), options[-1])
    )


def _info_stats(interp, argv):
    """``info stats ?pattern? ?-reset?`` over ``interp.stats_sources``.

    Returns a sorted ``source.key value`` list (floats as ``%.4f``) of
    the keys matching the glob ``pattern``.  ``-reset`` instead zeroes
    every source with a matching key; if any of them is shared
    (``reset`` is None) it fails and resets nothing.
    """
    args = argv[2:]
    reset = bool(args) and args[-1] == "-reset"
    if reset:
        args = args[:-1]
    if len(args) > 1:
        _wrong_args("info stats ?pattern? ?-reset?")
    pattern = args[0] if args else "*"
    pairs = []
    resets = {}
    for source, (snapshot, reset_source) in interp.stats_sources.items():
        for key, value in snapshot().items():
            key = "%s.%s" % (source, key)
            if glob_match(pattern, key):
                pairs.append((key, value))
                resets[source] = reset_source
    if not reset:
        return list_to_string([
            item for key, value in sorted(pairs) for item in
            (key, "%.4f" % value if isinstance(value, float) else str(value))
        ])
    shared = sorted(source for source, fn in resets.items() if fn is None)
    if shared:
        raise TclError('info stats: cannot reset "%s": it is shared beyond '
                       'this interpreter' % shared[0])
    for reset_source in resets.values():
        reset_source()
    return ""


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
