"""Wafe -- the Widget[Athena]FrontEnd, the paper's primary contribution.

The package assembles the substrate layers into the frontend program:

* :class:`~repro.core.wafe.Wafe` -- Tcl interpreter + Xt application
  context + widget class table + the generated and handwritten command
  sets.
* :mod:`repro.core.modes` -- interactive, file and frontend modes.
* :mod:`repro.core.frontend` -- the backend subprocess and the pipe
  protocol, including the mass transfer channel.
* :mod:`repro.core.percent` -- percent codes for actions and callbacks.
* :mod:`repro.core.predefined` -- the predefined popup callbacks.
* :mod:`repro.core.cli` -- the ``wafe``/``mofe`` executables.
"""

from repro.core.wafe import Wafe, VERSION
from repro.core.modes import (
    InteractiveSession,
    make_wafe,
    run_file,
    run_frontend,
)

__all__ = [
    "Wafe",
    "VERSION",
    "InteractiveSession",
    "make_wafe",
    "run_file",
    "run_frontend",
]
