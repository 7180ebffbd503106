"""State-machine-derived test sequences and executable contracts for REST APIs.

The pipeline: describe a service's resource lifecycles as a small model,
enumerate its state space (`lifecycle`), derive a set of call sequences
that covers every state (`ssg`, `seqgen`), attach machine-checkable
contracts to the API description (`speckit`, `glacier`), and drive the live
service while evaluating those contracts around every call (`executor`,
`evaluator`).
`demo` ships a small tournaments service with seedable faults to try the
whole loop on.
"""

__version__ = "0.1.0"

from . import demo, evaluator, executor, glacier, lifecycle, runtime, seqgen, speckit, ssg
from .executor import classify, run_campaign
from .glacier import parse, print_formula
from .lifecycle import explore, load_model
from .seqgen import select_sequences, to_call_sequences
from .speckit import infer_contracts, load_oas

__all__ = [
    "__version__",
    "classify",
    "demo",
    "evaluator",
    "executor",
    "explore",
    "glacier",
    "infer_contracts",
    "lifecycle",
    "load_model",
    "load_oas",
    "parse",
    "print_formula",
    "run_campaign",
    "runtime",
    "select_sequences",
    "seqgen",
    "speckit",
    "ssg",
    "to_call_sequences",
]
