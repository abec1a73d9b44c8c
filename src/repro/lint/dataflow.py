"""A generic worklist dataflow solver over basic-block graphs.

The solver is deliberately ignorant of what flows: a *problem* supplies
the direction, the lattice (``join``/``equals``), the boundary state,
and a per-statement transfer function.  The flow-sensitive lint rules
(W012..W017, see :mod:`repro.lint.flowrules`) are its consumers.

Three ready-made lattices cover the rules built so far:

* :class:`SetUnion` -- "may" facts (possibly-assigned variables,
  destroyed widget handles): sets joined by union.
* :class:`Liveness` -- backward may-read-before-overwrite, with a
  complemented set form so "everything live at exit" still admits
  kills.
* :class:`ConstLattice` -- simple constant propagation: a variable maps
  to a constant value or to ``NAC`` (not-a-constant); missing keys are
  "unknown" and join as NAC.
* plain reachability, a degenerate forward problem solved directly by
  :func:`reachable_blocks` because it needs no per-statement transfer.
"""

FORWARD = "forward"
BACKWARD = "backward"


class Problem:
    """Base class for dataflow problems.

    Subclasses define ``direction``, ``boundary()`` (the state at the
    graph entry for forward problems / exit for backward ones),
    ``initial()`` (the optimistic starting state of every other block),
    ``join(a, b)``, ``equals(a, b)``, ``copy(state)``, and
    ``transfer(stmt, state)`` which returns the state after (forward)
    or before (backward) the statement.
    """

    direction = FORWARD


def _block_transfer(problem, block, state):
    stmts = block.stmts
    if problem.direction == BACKWARD:
        stmts = reversed(stmts)
    for stmt in stmts:
        state = problem.transfer(stmt, state)
    return state


def solve(graph, problem):
    """Iterate ``problem`` over ``graph`` to a fixpoint.

    Returns ``{block: state}`` mapping every block to its *input* state
    (state at block entry for forward problems, at block exit for
    backward ones).  Use :func:`stmt_states` to expand a block's input
    into per-statement states.
    """
    blocks = graph.blocks
    forward = problem.direction == FORWARD
    in_states = {}
    for block in blocks:
        in_states[block] = problem.initial()
    boundary_block = graph.entry if forward else graph.exit
    in_states[boundary_block] = problem.join(
        in_states[boundary_block], problem.boundary())
    worklist = list(blocks)
    pending = set(worklist)
    while worklist:
        block = worklist.pop()
        pending.discard(block)
        out_state = _block_transfer(
            problem, block, problem.copy(in_states[block]))
        targets = block.succs if forward else block.preds
        for target in targets:
            joined = problem.join(in_states[target], out_state)
            if not problem.equals(joined, in_states[target]):
                in_states[target] = joined
                if target not in pending:
                    pending.add(target)
                    worklist.append(target)
    return in_states


def stmt_states(problem, block, in_state):
    """Per-statement input states inside one block.

    Yields ``(stmt, state_before_transfer)`` in program order for
    forward problems and in *reverse* program order for backward ones
    (each state is the one the statement's transfer sees).
    """
    state = problem.copy(in_state)
    stmts = block.stmts
    if problem.direction == BACKWARD:
        stmts = list(reversed(stmts))
    for stmt in stmts:
        yield stmt, state
        state = problem.transfer(stmt, state)


def reachable_blocks(graph):
    """Blocks reachable from the graph entry along CFG edges."""
    seen = set()
    stack = [graph.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.succs)
    return seen


# ----------------------------------------------------------------------
# Ready-made lattices


class SetUnion(Problem):
    """May-analysis over sets of names joined by union.

    The client provides ``gen(stmt)``/``kill(stmt)`` functions (each
    returning an iterable of names) and the direction.  ``havoc(stmt)``
    returning True makes the transfer add the distinguished
    :data:`EVERYTHING` marker, which absorbs all joins -- the sound
    answer for statements whose effects cannot be modeled (``eval``,
    ``uplevel``, ``source``).
    """

    #: Marker meaning "every name": membership tests on a state holding
    #: it must go through :meth:`contains`.
    EVERYTHING = "<everything>"

    def __init__(self, gen, kill, direction=FORWARD, boundary_names=(),
                 havoc=None):
        self.direction = direction
        self._gen = gen
        self._kill = kill
        self._havoc = havoc
        self._boundary = frozenset(boundary_names)

    def boundary(self):
        return set(self._boundary)

    def initial(self):
        return set()

    def join(self, a, b):
        return a | b

    def equals(self, a, b):
        return a == b

    def copy(self, state):
        return set(state)

    def contains(self, state, name):
        return self.EVERYTHING in state or name in state

    def transfer(self, stmt, state):
        if self._havoc is not None and self._havoc(stmt):
            state.add(self.EVERYTHING)
            return state
        for name in self._kill(stmt):
            state.discard(name)
        for name in self._gen(stmt):
            state.add(name)
        return state


class Liveness(Problem):
    """Backward liveness with a proper complement: the state is either
    ``("only", names)`` (exactly these names may be read later) or
    ``("allbut", names)`` (every name may be read later except these).

    The complemented form exists because of script exits: at the end of
    a top-level script *every* variable stays visible to later chunks
    and callbacks, so the exit boundary is "all live" -- yet a definite
    overwrite must still be able to kill liveness through it, which a
    plain may-set with an "everything" marker cannot express.

    The client provides ``uses(stmt)`` returning ``(names, everything)``
    (``everything`` True when the statement may read arbitrary
    variables -- unknown commands, procs that may ``upvar``) and
    ``defs(stmt)`` returning the names the statement *definitely*
    overwrites (only unconditional scalar writes qualify).
    """

    direction = BACKWARD

    def __init__(self, uses, defs, boundary_all=True):
        self._uses = uses
        self._defs = defs
        self._boundary_all = boundary_all

    def boundary(self):
        if self._boundary_all:
            return ("allbut", set())
        return ("only", set())

    def initial(self):
        return ("only", set())

    def join(self, a, b):
        atag, anames = a
        btag, bnames = b
        if atag == "only" and btag == "only":
            return ("only", anames | bnames)
        if atag == "allbut" and btag == "allbut":
            return ("allbut", anames & bnames)
        if atag == "only":
            return ("allbut", bnames - anames)
        return ("allbut", anames - bnames)

    def equals(self, a, b):
        return a[0] == b[0] and a[1] == b[1]

    def copy(self, state):
        return (state[0], set(state[1]))

    @staticmethod
    def is_live(state, name):
        tag, names = state
        if tag == "only":
            return name in names
        return name not in names

    def transfer(self, stmt, state):
        tag, names = state
        # Backward: the definite overwrite "happens" first (kills the
        # old value's liveness), then the statement's own reads revive.
        for name in self._defs(stmt):
            if tag == "only":
                names.discard(name)
            else:
                names.add(name)
        used, everything = self._uses(stmt)
        if everything:
            return ("allbut", set())
        if tag == "only":
            names.update(used)
        else:
            names.difference_update(used)
        return (tag, names)


#: Bottom of the constant lattice: definitely not a (known) constant.
NAC = object()

#: Top marker: the state of a block the solver has not reached yet.
#: Joins as the identity, so garbage out-states computed from unvisited
#: blocks during the first worklist sweep are ignored.
_TOP = "<top>"


class ConstLattice(Problem):
    """Forward constant propagation: ``{name: value-or-NAC}``.

    Missing keys mean "unknown at this point" and read as :data:`NAC`
    (the rules only act on proven constants, so the pessimistic default
    is sound).  The client provides ``effects(stmt, state)`` which
    mutates the dict in place: assign a value, assign :data:`NAC`, or
    call :meth:`wipe` for statements that may clobber anything.
    """

    def __init__(self, effects, boundary_consts=None):
        self.direction = FORWARD
        self._effects = effects
        self._boundary_consts = dict(boundary_consts or {})

    def boundary(self):
        return dict(self._boundary_consts)

    def initial(self):
        return {_TOP: True}

    def join(self, a, b):
        # The _TOP marker means "every key not listed is still the
        # optimistic top" (join identity), so a missing key reads as
        # top in a marked state and as NAC in a real one.  The marker
        # itself survives only when both sides carry it.  Transfer
        # functions keep the marker while adding real keys, so marked
        # states are NOT simply replaceable wholesale: treating them
        # that way would make loop joins last-writer-wins and the
        # worklist would ping-pong between predecessor states forever.
        if _TOP in a and len(a) == 1:
            return dict(b)
        if _TOP in b and len(b) == 1:
            return dict(a)
        a_top = _TOP in a
        b_top = _TOP in b
        out = {}
        for name in set(a) | set(b):
            if name == _TOP:
                continue
            if name not in a:
                out[name] = b[name] if a_top else NAC
            elif name not in b:
                out[name] = a[name] if b_top else NAC
            else:
                value, other = a[name], b[name]
                if value is other or (value is not NAC
                                      and other is not NAC
                                      and value == other):
                    out[name] = value
                else:
                    out[name] = NAC
        if a_top and b_top:
            out[_TOP] = True
        return out

    def equals(self, a, b):
        if set(a) != set(b):
            return False
        for name, value in a.items():
            other = b[name]
            if value is NAC or other is NAC:
                if value is not other:
                    return False
            elif value != other:
                return False
        return True

    def copy(self, state):
        return dict(state)

    @staticmethod
    def wipe(state):
        """Forget every constant (call from ``effects`` on havoc)."""
        state.clear()

    def value_of(self, state, name):
        """The proven constant for ``name``, or :data:`NAC`."""
        if _TOP in state:
            return NAC
        return state.get(name, NAC)

    def transfer(self, stmt, state):
        self._effects(stmt, state)
        return state
