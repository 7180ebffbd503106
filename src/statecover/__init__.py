"""State-machine-derived test sequences and executable contracts for REST APIs.

The pipeline: describe a service's resource lifecycles as a small model,
enumerate its state space (`lifecycle`), derive a set of call sequences
that covers every state (`ssg`, `seqgen`), attach machine-checkable
contracts to the API description (`speckit`, `glacier`), and drive the live
service while evaluating those contracts around every call (`executor`,
`evaluator`). `transport` frames HTTP on the standard library for both ends
of that wire and opens the campaign's sockets itself. `demo` ships a small
tournaments service with seedable faults to try the whole loop on. Records
are NamedTuples or slotted classes, so no module imports `dataclasses`.

Importing the package loads none of these modules. Each name in `__all__`
loads its module on first access (PEP 562), so `statecover.run_campaign`
is `statecover.executor.run_campaign`, and a program that imports one
submodule pays for that one and what it imports.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("demo", "evaluator", "executor", "glacier", "lifecycle", "runtime", "seqgen",
     "speckit", "ssg", "transport"))

# public name -> the submodule that defines it
_EXPORTS = {
    "classify": "executor",
    "run_campaign": "executor",
    "parse": "glacier",
    "print_formula": "glacier",
    "explore": "lifecycle",
    "load_model": "lifecycle",
    "select_sequences": "seqgen",
    "to_call_sequences": "seqgen",
    "infer_contracts": "speckit",
    "load_oas": "speckit",
}

__all__ = sorted(("__version__", *_SUBMODULES, *_EXPORTS))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
