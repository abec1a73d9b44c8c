"""Callback lists (XtCallbackList).

A callback resource holds an ordered list of callables invoked with
``(widget, call_data)``.  Wafe's Callback converter wraps Tcl command
strings into such callables; ``source`` preserves the original string so
``getValues`` can read a callback resource back -- the capability the
paper points out is *not* available in plain Xt ("Opposite to the X
Toolkit it is possible in Wafe to obtain the value of a callback
resource").
"""


class CallbackList:
    """An ordered list of (callable, source-string) callbacks."""

    def __init__(self, items=None, source=""):
        self._items = list(items) if items else []
        self.source = source

    def add(self, func, source=""):
        self._items.append(func)
        if source:
            self.source = (self.source + "\n" + source).strip()

    def call(self, widget, call_data=None):
        for func in list(self._items):
            try:
                func(widget, call_data)
            except Exception as exc:  # noqa: BLE001 -- firewall
                # One broken callback must not starve the rest of the
                # list or unwind the event loop.  XtCallCallbacks has
                # no error channel; route through the app context's
                # firewall when the widget is attached to one.
                app = getattr(widget, "app", None)
                if app is not None and hasattr(app, "report_exception"):
                    app.report_exception(
                        'callback on widget "%s"'
                        % getattr(widget, "name", "?"), exc)
                else:
                    raise

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)

    def __repr__(self):  # pragma: no cover
        return "CallbackList(%d items, %r)" % (len(self._items), self.source)
