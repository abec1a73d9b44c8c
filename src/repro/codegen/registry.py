"""A queryable database of the spec-defined command surface.

The emitter turns spec items into generated code; tooling (the
``wafelint`` static analyzer, the reference docs, completion) instead
needs the *facts* behind that code: which command names exist for a
build, what each one's arity is, which names create widgets of which
class.  :class:`SpecRegistry` exposes exactly that, built from the same
shipped ``specs/*.spec`` files the bindings are generated from -- so the
static view can never drift from the runtime view.
"""

from repro.codegen.specparser import (
    FunctionSpec,
    WidgetClassSpec,
    command_name_for,
    creation_command_for,
)


class SpecRegistry:
    """Spec items for one build configuration, indexed by command name."""

    def __init__(self, items, build=""):
        self.build = build
        #: command name -> FunctionSpec
        self.functions = {}
        #: creation command name -> WidgetClassSpec
        self.creations = {}
        for item in items:
            if isinstance(item, WidgetClassSpec):
                self.creations[creation_command_for(item.class_name)] = item
            elif isinstance(item, FunctionSpec):
                self.functions[command_name_for(item.c_name)] = item

    @classmethod
    def for_build(cls, build="athena"):
        """The registry for a Wafe build (``athena`` or ``motif``)."""
        from repro import codegen

        return cls(codegen.load_specs(codegen.BUILD_SPECS[build]),
                   build=build)

    # ------------------------------------------------------------------
    # Queries

    def __contains__(self, name):
        return name in self.functions or name in self.creations

    def is_creation(self, name):
        return name in self.creations

    def widget_class_for(self, name):
        """The widget class name a creation command instantiates."""
        spec = self.creations.get(name)
        return spec.class_name if spec is not None else None

    def arity_for(self, name):
        """The exact ``len(argv)`` a spec function demands (None if
        ``name`` is not a spec function -- creation commands and
        handwritten commands take variable arguments)."""
        spec = self.functions.get(name)
        if spec is None:
            return None
        return 1 + len(spec.arguments)

    def usage_for(self, name):
        """A human-readable usage line mirroring the generated error
        message (``cmd widget int ...``)."""
        spec = self.functions.get(name)
        if spec is None:
            creation = self.creations.get(name)
            if creation is None:
                return None
            return "%s name parent ?attr value ...?" % name
        from repro.codegen.emitter import _ARG_USAGE

        parts = [name]
        for arg in spec.arguments:
            if arg.direction == "in":
                parts.append(_ARG_USAGE[arg.type])
            else:
                parts.append("varName")
        return " ".join(parts)


_REGISTRY_CACHE = {}


def registry_for(build="athena"):
    """Cached per-build :class:`SpecRegistry` (specs never change at
    runtime, so one parse per process suffices)."""
    registry = _REGISTRY_CACHE.get(build)
    if registry is None:
        registry = _REGISTRY_CACHE[build] = SpecRegistry.for_build(build)
    return registry
