"""Compiling residual programs to executable Python.

The paper's Further Work (Sec. 8) proposes "constructing generating
extensions that produce native code directly — partial evaluators which
do so already exist.  This also paves the way for applying our ideas in
run-time code generation."  This package is that extension, with Python
as the "native" target:

* :mod:`repro.backend.pyemit` — a code generator from object-language
  programs (typically residual programs) to Python source;
* :mod:`repro.backend.rtcg` — run-time code generation: specialise,
  compile the residual program to Python, and hand back a callable, all
  in one step; as the paper notes, in this mode the residual program
  never needs to be divided into modules;
* :mod:`repro.backend.tiers` — the three-tier execution ladder:
  hotness-promoted goals climb interpret → residual-interpret →
  compiled, with the compiled callable kept in the residual store and
  its code object persisted beside ``resid.json`` (see
  docs/performance.md, "Execution tiers").
"""

from repro.backend.pyemit import CompiledProgram, compile_program, emit_python
from repro.backend.rtcg import generate
from repro.backend.tiers import TierLadder, TierPolicy, TierRun

__all__ = [
    "CompiledProgram",
    "TierLadder",
    "TierPolicy",
    "TierRun",
    "compile_program",
    "emit_python",
    "generate",
]
