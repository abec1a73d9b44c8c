"""The linter's ground truth, assembled from the repo's own tables.

Nothing here is hand-maintained: the command surface comes from the
same sources the runtime registers commands from (the Tcl builtin
modules, the handwritten Wafe command module, the codegen spec files),
widget resources come from the widget classes' ``RESOURCES`` tables,
and percent-code validity comes from :mod:`repro.core.percent`.  If a
spec or a class table changes, the linter follows automatically.
"""

from repro.codegen.registry import registry_for
from repro.core import commands as _wafe_commands
from repro.core.percent import ACTION_CODE_EVENTS, CALLBACK_CODES
from repro.core.safemode import SAFE_HIDDEN_COMMANDS
from repro.core.predefined import PREDEFINED_CALLBACKS
from repro.tcl import Interp
from repro.xt.resources import R_CALLBACK
from repro.xt.shell import ApplicationShell

#: Percent codes valid in any callback context (besides class-specific
#: ones): %w (widget name) and %% (literal percent).
CALLBACK_UNIVERSAL_CODES = frozenset("w%")

#: Every class-specific callback code that exists at all, used when the
#: receiving widget class cannot be determined statically.
ALL_CALLBACK_CODES = frozenset(
    code for table in CALLBACK_CODES.values() for code in table)


def _tcl_builtin_names():
    """The builtin command table, harvested from a throwaway Interp."""
    return frozenset(Interp(register_builtins=True).commands)


class _CommandRecorder:
    """Stands in for a Wafe instance to harvest handwritten command
    registrations without constructing a display connection."""

    def __init__(self):
        self.names = []

    def register_command(self, name, func):
        self.names.append(name)


def _handwritten_names():
    recorder = _CommandRecorder()
    _wafe_commands.register(recorder)
    # The alias pair Wafe._register_commands adds directly.
    recorder.names.extend(["sV", "gV"])
    return frozenset(recorder.names)


def _class_tables(build):
    """CLASS_NAME -> widget class for the build (plus the shells every
    build has: topLevel and ``applicationShell`` results)."""
    tables = {}
    if build in ("athena", "both"):
        from repro.xaw import ATHENA_CLASSES, PLOTTER_CLASSES

        tables.update(ATHENA_CLASSES)
        tables.update(PLOTTER_CLASSES)
    if build in ("motif", "both"):
        from repro.motif import MOTIF_CLASSES

        tables.update(MOTIF_CLASSES)
    tables["ApplicationShell"] = ApplicationShell
    return tables


class Knowledge:
    """Everything the analyzer can know without running the script."""

    def __init__(self, build="athena"):
        self.build = build
        self.builtins = _tcl_builtin_names()
        self.wafe_commands = _handwritten_names()
        if build == "both":
            self.registries = (registry_for("athena"), registry_for("motif"))
        else:
            self.registries = (registry_for(build),)
        self.classes = _class_tables(build)
        self.predefined_callbacks = frozenset(PREDEFINED_CALLBACKS)
        #: Commands hidden under --safe, with the reason each is
        #: dangerous (the same table the runtime hides from).
        self.safe_hidden = SAFE_HIDDEN_COMMANDS
        self.action_code_events = ACTION_CODE_EVENTS
        self.callback_codes = CALLBACK_CODES
        #: Union of every class's constraint resources, for attribute
        #: checks when the parent class is not statically known.
        names = set()
        for klass in self.classes.values():
            names.update(klass.class_constraint_map())
        self.all_constraint_names = frozenset(names)

    # ------------------------------------------------------------------
    # Commands

    def command_known(self, name):
        if name in self.builtins or name in self.wafe_commands:
            return True
        return any(name in registry for registry in self.registries)

    def creation_class(self, name):
        """Widget class name if ``name`` is a creation command."""
        for registry in self.registries:
            class_name = registry.widget_class_for(name)
            if class_name is not None:
                return class_name
        return None

    def spec_arity(self, name):
        """(arity, usage) for spec-defined function commands."""
        for registry in self.registries:
            arity = registry.arity_for(name)
            if arity is not None:
                return arity, registry.usage_for(name)
        return None, None

    def widget_arg_positions(self, name):
        """1-based argv positions that must name a live widget.

        Derived from the spec files (``in: Widget`` arguments) plus the
        handwritten resource commands; creation commands expect a live
        *parent* at position 2.  Used by W016 (use after destroy)."""
        for registry in self.registries:
            spec = registry.functions.get(name)
            if spec is not None:
                return tuple(
                    i + 1 for i, arg in enumerate(spec.arguments)
                    if arg.direction == "in" and arg.type == "Widget")
            if registry.is_creation(name):
                return (2,)
        if name in ("setValues", "sV", "getValues", "gV"):
            return (1,)
        return ()

    def out_var_positions(self, name):
        """1-based argv positions that receive a result into a Tcl
        variable (spec ``out:`` arguments).  Used by the flow rules:
        an out argument *assigns* the named variable."""
        for registry in self.registries:
            spec = registry.functions.get(name)
            if spec is not None:
                return tuple(i + 1 for i, arg in enumerate(spec.arguments)
                             if arg.direction == "out")
        return ()

    # ------------------------------------------------------------------
    # Widget classes and resources

    def resource_map(self, class_name):
        klass = self.classes.get(class_name)
        return klass.class_resource_map() if klass is not None else None

    def constraint_names(self, parent_class_name):
        """Constraint resource names the parent imposes; the union of
        all classes when the parent is unknown."""
        klass = self.classes.get(parent_class_name or "")
        if klass is not None:
            return frozenset(klass.class_constraint_map())
        return self.all_constraint_names

    def is_callback_resource(self, class_name, resource_name):
        resources = self.resource_map(class_name)
        if resources is None:
            return resource_name.endswith(("callback", "Callback", "Proc"))
        resource = resources.get(resource_name)
        return resource is not None and resource.type == R_CALLBACK

    def action_names(self, class_name):
        """Action procs usable in translations on a class (plus the
        global ``exec`` action Wafe registers on every app)."""
        klass = self.classes.get(class_name or "")
        if klass is None:
            return None
        names = set(klass.class_actions())
        names.add("exec")
        return names

    def callback_codes_for(self, class_name, resource_name):
        """Valid class-specific percent codes for a callback resource,
        walking the class hierarchy like the runtime lookup does."""
        klass = self.classes.get(class_name or "")
        if klass is None:
            return None
        for ancestor in klass.__mro__:
            name = ancestor.__dict__.get("CLASS_NAME")
            if name is None:
                continue
            table = self.callback_codes.get((name, resource_name))
            if table is not None:
                return frozenset(table)
        return frozenset()


_KNOWLEDGE_CACHE = {}


def knowledge_for(build="athena"):
    """Cached per-build :class:`Knowledge` (tables are immutable)."""
    knowledge = _KNOWLEDGE_CACHE.get(build)
    if knowledge is None:
        knowledge = _KNOWLEDGE_CACHE[build] = Knowledge(build)
    return knowledge
