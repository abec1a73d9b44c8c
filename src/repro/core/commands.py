"""Handwritten Wafe commands (the irregular, non-generated ones).

These are the commands the paper describes individually: ``echo``,
``quit``, ``realize``, ``setValues``/``sV``, ``getValue``/``gV``,
``mergeResources``, ``action``, ``callback`` (predefined callbacks),
``applicationShell`` (display instead of parent), and the communication
commands ``getChannel`` / ``setCommunicationVariable`` -- plus the
supervision commands (``restartPolicy``, ``onBackendExit``,
``backendStatus``, ``massTransferTimeout``, ``channelHighWater``,
``handlerTimeLimit``, ``onHandlerQuarantine``) documented in
docs/ROBUSTNESS.md.
"""

from repro.tcl.errors import TclError
from repro.core.supervisor import POLICIES


def _int_arg(text, what):
    try:
        value = int(text)
    except ValueError:
        raise TclError('expected integer but got "%s"' % text)
    if value < 0:
        raise TclError("%s must be non-negative" % what)
    return value


def _wrong_args(usage):
    raise TclError('wrong # args: should be "%s"' % usage)


def cmd_echo(wafe, argv):
    """Join the arguments with spaces and send them down the channel."""
    wafe.echo(" ".join(argv[1:]))
    return ""


def cmd_quit(wafe, argv):
    wafe.quit()
    return ""


def cmd_realize(wafe, argv):
    """Realize the widget tree (topLevel unless a widget is given)."""
    if len(argv) > 2:
        _wrong_args("realize ?widget?")
    widget = wafe.lookup_widget(argv[1]) if len(argv) == 2 else None
    wafe.realize(widget)
    return ""

def cmd_set_values(wafe, argv):
    if len(argv) < 2 or len(argv) % 2 != 0:
        _wrong_args("setValues widget ?attr value ...?")
    widget = wafe.lookup_widget(argv[1])
    args = {argv[i]: argv[i + 1] for i in range(2, len(argv), 2)}
    widget.set_values(args)
    wafe.app.process_pending()
    return ""


def cmd_get_value(wafe, argv):
    if len(argv) != 3:
        _wrong_args("getValue widget resource")
    widget = wafe.lookup_widget(argv[1])
    return widget.get_value_string(argv[2])


def cmd_get_values(wafe, argv):
    """Multiple resources into variables: getValues w res var ?res var?"""
    if len(argv) < 4 or len(argv) % 2 != 0:
        _wrong_args("getValues widget resource varName ?resource varName ...?")
    widget = wafe.lookup_widget(argv[1])
    for i in range(2, len(argv), 2):
        wafe.interp.set_var(argv[i + 1], widget.get_value_string(argv[i]))
    return ""


def cmd_merge_resources(wafe, argv):
    """Extend the resource database from within a script.

    Invalid specifiers (empty, or ending in a dangling ``.``/``*``)
    add no entry; a wafelint-style advisory is reported for each so
    the script author sees the typo instead of a silently-odd match.
    """
    if len(argv) < 2:
        _wrong_args("mergeResources spec value ?spec value ...?")
    if wafe.quotas is not None:
        wafe.quotas.charge_xrm(len(wafe.app.database))
    if len(argv) == 2:
        for spec in wafe.app.merge_resources(argv[1]):
            wafe.report_error(
                'mergeResources: invalid resource specifier "%s" '
                "(entry ignored)" % spec)
        return ""
    if len(argv) % 2 != 1:
        _wrong_args("mergeResources spec value ?spec value ...?")
    for i in range(1, len(argv), 2):
        if not wafe.app.database.put(argv[i], argv[i + 1]):
            wafe.report_error(
                'mergeResources: invalid resource specifier "%s" '
                "(entry ignored)" % argv[i])
    return ""


def cmd_action(wafe, argv):
    """action widget override|augment|replace translations..."""
    if len(argv) < 4:
        _wrong_args("action widget mode translation ?translation ...?")
    widget = wafe.lookup_widget(argv[1])
    mode = argv[2]
    if mode not in ("override", "augment", "replace"):
        raise TclError(
            'bad mode "%s": must be override, augment, or replace' % mode)
    table_text = "\n".join(argv[3:])
    wafe.merge_widget_translations(widget, table_text, mode)
    return ""


def cmd_callback(wafe, argv):
    """callback widget resource predefinedFunc ?arg ...?"""
    if len(argv) < 4:
        _wrong_args("callback widget resource function ?arg ...?")
    widget = wafe.lookup_widget(argv[1])
    wafe.add_predefined_callback(widget, argv[2], argv[3], list(argv[4:]))
    return ""


def cmd_add_callback(wafe, argv):
    """addCallback widget resource script: append a Tcl callback."""
    if len(argv) != 4:
        _wrong_args("addCallback widget resource script")
    widget = wafe.lookup_widget(argv[1])
    if argv[2] not in widget.class_resource_map():
        raise TclError('widget "%s" has no callback resource "%s"'
                       % (argv[1], argv[2]))
    callback_list = widget.callback_list(argv[2])
    wafe._add_script_callback(callback_list, argv[3])
    return ""


def cmd_application_shell(wafe, argv):
    """applicationShell name display ?attr value ...? -- the paper's
    multi-display mechanism (children map to the named display)."""
    if len(argv) < 3:
        _wrong_args("applicationShell name display ?attr value ...?")
    rest = argv[3:]
    if len(rest) % 2 != 0:
        raise TclError("attribute list must have an even number of elements")
    args = {rest[i]: rest[i + 1] for i in range(0, len(rest), 2)}
    return wafe.create_application_shell(argv[1], argv[2], args)


def cmd_wafe_version(wafe, argv):
    from repro.core.wafe import VERSION

    return VERSION


def cmd_widget_tree(wafe, argv):
    """widgetTree ?widget?: the widget hierarchy as a Tcl list (used by
    the interactive designer example)."""
    from repro.tcl.lists import list_to_string

    root = wafe.lookup_widget(argv[1]) if len(argv) == 2 else wafe.top_level

    def describe(widget):
        children = [describe(c) for c in widget.children
                    if c.name in wafe.widgets]
        return list_to_string([widget.name, widget.CLASS_NAME,
                               list_to_string(children)])

    return describe(root)


def cmd_widget_exists(wafe, argv):
    if len(argv) != 2:
        _wrong_args("widgetExists name")
    return "1" if argv[1] in wafe.widgets else "0"


def cmd_sync(wafe, argv):
    """Dispatch everything pending (useful in scripts and tests).

    This is the protocol's sync point: accumulated damage flushes into
    Expose events, those dispatch, and the frontend's batched output is
    written through -- the single outbound FIFO keeps everything sent
    before the sync ordered ahead of anything after it."""
    for display in wafe.app.displays:
        display.flush_damage()
    wafe.app.process_pending()
    if wafe.frontend is not None:
        wafe.frontend.sync_point()
    return ""


def cmd_get_channel(wafe, argv):
    """getChannel: the fd the application writes mass data to."""
    if wafe.frontend is None:
        raise TclError("getChannel: no application attached")
    return str(wafe.frontend.mass_channel_fd())


def cmd_set_communication_variable(wafe, argv):
    """setCommunicationVariable varName byteCount completionScript."""
    if len(argv) != 4:
        _wrong_args("setCommunicationVariable varName byteCount script")
    if wafe.frontend is None:
        raise TclError("setCommunicationVariable: no application attached")
    try:
        limit = int(argv[2])
    except ValueError:
        raise TclError('expected integer but got "%s"' % argv[2])
    wafe.frontend.set_communication_variable(argv[1], limit, argv[3])
    return ""


def cmd_set_prefix(wafe, argv):
    """setPrefix char: change the command-prefix character of the
    protocol (the paper: lines "starting with a certain character
    (such as %)")."""
    if len(argv) != 2 or len(argv[1]) != 1:
        _wrong_args("setPrefix char")
    if wafe.frontend is None:
        raise TclError("setPrefix: no application attached")
    wafe.frontend.parser.prefix = argv[1]
    return ""


def cmd_send_to_application(wafe, argv):
    """sendToApplication string: like echo but never to stdout."""
    if wafe.frontend is None:
        raise TclError("sendToApplication: no application attached")
    wafe.frontend.send(" ".join(argv[1:]) + "\n")
    return ""


def cmd_restart_policy(wafe, argv):
    """restartPolicy ?never|on-failure|always? ?maxRestarts? ?backoffMs?
    ?backoffCapMs?: query or set the backend restart policy."""
    config = wafe.supervision
    if len(argv) == 1:
        return "%s %d %d %d" % (config.policy, config.max_restarts,
                                config.backoff_ms, config.backoff_cap_ms)
    if len(argv) > 5:
        _wrong_args("restartPolicy ?policy? ?maxRestarts? ?backoffMs? "
                    "?backoffCapMs?")
    if argv[1] not in POLICIES:
        raise TclError('bad restart policy "%s": must be %s'
                       % (argv[1], ", ".join(POLICIES)))
    config.set("policy", argv[1])
    if len(argv) > 2:
        config.set("max_restarts", _int_arg(argv[2], "maxRestarts"))
    if len(argv) > 3:
        config.set("backoff_ms", _int_arg(argv[3], "backoffMs"))
    if len(argv) > 4:
        config.set("backoff_cap_ms", _int_arg(argv[4], "backoffCapMs"))
    return ""


def cmd_on_backend_exit(wafe, argv):
    """onBackendExit ?script?: the hook run when the backend dies.

    Percent codes in the script: %s status, %k kind, %c code,
    %r restart count, %p program, %% literal."""
    config = wafe.supervision
    if len(argv) == 1:
        return config.on_exit_script or ""
    if len(argv) != 2:
        _wrong_args("onBackendExit ?script?")
    config.set("on_exit_script", argv[1] or None)
    return ""


def cmd_backend_status(wafe, argv):
    """backendStatus: {state pid restartCount lastExitStatus}."""
    from repro.tcl.lists import list_to_string

    if len(argv) != 1:
        _wrong_args("backendStatus")
    if wafe.supervisor is not None:
        return list_to_string(list(wafe.supervisor.status_fields()))
    frontend = wafe.frontend
    # A server session poses as the frontend but owns no child process;
    # it reports "detached" like standalone mode.
    process = getattr(frontend, "process", None)
    if frontend is None or process is None:
        return list_to_string(["detached", "", "0", ""])
    running = not frontend.closed and process.poll() is None
    status = frontend.exit_status
    return list_to_string([
        "running" if running else "exited",
        str(process.pid) if running else "",
        "0",
        status.describe() if status else "",
    ])


def cmd_mass_transfer_timeout(wafe, argv):
    """massTransferTimeout ?ms?: stall watchdog for the mass channel
    (0 disables).  A transfer with no progress for this long is
    aborted: the error is reported and the completion script runs with
    transferStatus set to "timeout"."""
    config = wafe.supervision
    if len(argv) == 1:
        return str(config.mass_timeout_ms)
    if len(argv) != 2:
        _wrong_args("massTransferTimeout ?ms?")
    config.set("mass_timeout_ms", _int_arg(argv[1], "massTransferTimeout"))
    return ""


def cmd_channel_high_water(wafe, argv):
    """channelHighWater ?bytes?: outbound backpressure limit -- beyond
    this many queued bytes, output to a non-reading backend is dropped
    with a reported error instead of buffered without bound."""
    config = wafe.supervision
    if len(argv) == 1:
        return str(config.high_water)
    if len(argv) != 2:
        _wrong_args("channelHighWater ?bytes?")
    config.set("high_water", _int_arg(argv[1], "channelHighWater"))
    return ""


def cmd_eval_limit(wafe, argv):
    """evalLimit ?timeMs? ?commands?: the eval watchdog budgets.

    Each top-level evaluation (one backend line, one callback script)
    may spend at most ``timeMs`` milliseconds of wall time and
    ``commands`` work units (dispatched commands plus nested eval
    entries); 0 disables either budget.  A trip unwinds the current
    line with an uncatchable Tcl error and leaves the event loop live.
    """
    config = wafe.supervision
    if len(argv) == 1:
        return "%d %d" % (config.eval_time_ms, config.eval_commands)
    if len(argv) > 3:
        _wrong_args("evalLimit ?timeMs? ?commands?")
    config.set("eval_time_ms", _int_arg(argv[1], "evalLimit timeMs"))
    if len(argv) > 2:
        config.set("eval_commands", _int_arg(argv[2], "evalLimit commands"))
    wafe.interp.set_eval_limits(time_ms=config.eval_time_ms,
                                commands=config.eval_commands)
    return ""


def cmd_handler_time_limit(wafe, argv):
    """handlerTimeLimit ?ms?: the event core's slow-handler watchdog.

    Every dispatched handler (input, output, timeout, work proc) is
    timed; one exceeding the budget is reported through the error
    channel and counted in ``info stats xt.event.*`` (0 disables).  Unlike
    ``evalLimit`` this does not abort the handler -- it makes the
    stall visible without changing semantics."""
    config = wafe.supervision
    if len(argv) == 1:
        return str(wafe.app.core.handler_time_limit_ms)
    if len(argv) != 2:
        _wrong_args("handlerTimeLimit ?ms?")
    config.set("handler_time_ms", _int_arg(argv[1], "handlerTimeLimit"))
    wafe.app.core.handler_time_limit_ms = config.handler_time_ms
    return ""


def cmd_on_handler_quarantine(wafe, argv):
    """onHandlerQuarantine ?script?: hook run when the event core
    quarantines a handler after repeated consecutive failures.

    Percent codes in the script: %k kind (input/output), %f fd,
    %l label, %n strike count, %e error text, %% literal."""
    config = wafe.supervision
    if len(argv) == 1:
        return config.on_quarantine_script or ""
    if len(argv) != 2:
        _wrong_args("onHandlerQuarantine ?script?")
    config.set("on_quarantine_script", argv[1] or None)
    return ""


def cmd_recursion_limit(wafe, argv):
    """recursionLimit ?limit?: the Tcl evaluation nesting ceiling."""
    config = wafe.supervision
    if len(argv) == 1:
        return str(wafe.interp.recursion_limit)
    if len(argv) != 2:
        _wrong_args("recursionLimit ?limit?")
    limit = _int_arg(argv[1], "recursionLimit")
    if limit < 1:
        raise TclError("recursionLimit must be at least 1")
    config.set("recursion_limit", limit)
    wafe.interp.set_recursion_limit(limit)
    return ""


def cmd_safe_mode(wafe, argv):
    """safeMode ?on?: query or (irreversibly) enter safe mode."""
    if len(argv) == 1:
        return "1" if wafe.safe_mode else "0"
    if len(argv) != 2:
        _wrong_args("safeMode ?on?")
    if argv[1].lower() in ("0", "off", "false", "no"):
        if wafe.safe_mode:
            raise TclError("safe mode cannot be disabled from a script")
        return "0"
    wafe.supervision.set("safe_mode", True)
    wafe.enable_safe_mode()
    return "1"


def _quota_attrs(quotas):
    """Command-level attr names derived from the quota resource names
    (``sessionMaxWidgets`` -> ``maxWidgets``)."""
    out = {}
    for attr, name, __, kind, __ in quotas.FIELDS:
        cmd_name = name[len("session"):]
        out[cmd_name[0].lower() + cmd_name[1:]] = (attr, kind)
    return out


def cmd_session_quota(wafe, argv):
    """sessionQuota ?quota? ?value?: per-session resource quotas.

    Server mode only (each connected session carries its own quota
    set).  With no arguments returns every quota with its value plus
    the trip counters by kind; with a quota name alone queries it;
    with a value sets it explicitly (beating resources)."""
    from repro.tcl.lists import list_to_string

    quotas = wafe.quotas
    if quotas is None:
        raise TclError("sessionQuota: no quotas attached "
                       "(only sessions of a wafe server have quotas)")
    attrs = _quota_attrs(quotas)
    if len(argv) == 1:
        pairs = []
        for cmd_name in sorted(attrs):
            attr, __ = attrs[cmd_name]
            value = getattr(quotas, attr)
            if isinstance(value, bool):
                value = "1" if value else "0"
            pairs += [cmd_name, str(value)]
        for kind in quotas.TRIP_KINDS:
            pairs += ["trips(%s)" % kind, str(quotas.trips[kind])]
        return list_to_string(pairs)
    if argv[1] not in attrs:
        raise TclError('bad quota "%s": must be %s'
                       % (argv[1], ", ".join(sorted(attrs))))
    attr, kind = attrs[argv[1]]
    if len(argv) == 2:
        value = getattr(quotas, attr)
        if isinstance(value, bool):
            return "1" if value else "0"
        return str(value)
    if len(argv) != 3:
        _wrong_args("sessionQuota ?quota? ?value?")
    try:
        quotas.set(attr, quotas._parse(kind, argv[2]))
    except ValueError as err:
        raise TclError("sessionQuota: %s" % err)
    quotas.notify_changed()
    return ""


def register(wafe):
    wafe.register_command("echo", cmd_echo)
    wafe.register_command("quit", cmd_quit)
    wafe.register_command("realize", cmd_realize)
    wafe.register_command("setValues", cmd_set_values)
    wafe.register_command("getValue", cmd_get_value)
    wafe.register_command("getValues", cmd_get_values)
    wafe.register_command("mergeResources", cmd_merge_resources)
    wafe.register_command("action", cmd_action)
    wafe.register_command("callback", cmd_callback)
    wafe.register_command("addCallback", cmd_add_callback)
    wafe.register_command("applicationShell", cmd_application_shell)
    wafe.register_command("wafeVersion", cmd_wafe_version)
    wafe.register_command("widgetTree", cmd_widget_tree)
    wafe.register_command("widgetExists", cmd_widget_exists)
    wafe.register_command("sync", cmd_sync)
    wafe.register_command("getChannel", cmd_get_channel)
    wafe.register_command("setCommunicationVariable",
                          cmd_set_communication_variable)
    wafe.register_command("sendToApplication", cmd_send_to_application)
    wafe.register_command("setPrefix", cmd_set_prefix)
    wafe.register_command("restartPolicy", cmd_restart_policy)
    wafe.register_command("onBackendExit", cmd_on_backend_exit)
    wafe.register_command("backendStatus", cmd_backend_status)
    wafe.register_command("massTransferTimeout", cmd_mass_transfer_timeout)
    wafe.register_command("channelHighWater", cmd_channel_high_water)
    wafe.register_command("evalLimit", cmd_eval_limit)
    wafe.register_command("recursionLimit", cmd_recursion_limit)
    wafe.register_command("safeMode", cmd_safe_mode)
    wafe.register_command("handlerTimeLimit", cmd_handler_time_limit)
    wafe.register_command("onHandlerQuarantine", cmd_on_handler_quarantine)
    wafe.register_command("sessionQuota", cmd_session_quota)
