"""The sweep's marches as C loops built from the generated parts of the Python marches
(``model._march_lines``), bitwise equal to them under ``_FLAGS`` and ``_HEADER``, once a process
has marched enough steps to pay for it."""

import functools
import logging
import re
import time

log = logging.getLogger("epictrl")

_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_HEADER = "#include <float.h>\n#if FLT_EVAL_METHOD != 0\n#error doubles evaluated wider\n#endif"
_KINDS = (False, True)  # the costate flag of each of the sweep's marches
# by costate flag, the loop of the march and the node each of its steps writes
_LOOPS = {False: ("for (i = i0; i < i1; i++) {", "j"), True: ("for (i = i1 - 1; i > i0 - 1; i--) {", "i")}
# names, numbers, subscripts, +, - and *; no division (C's truncates integers), power or call
_TOKEN = r"\d+\.\d+\b|\d+\b|[A-Za-z_]\w*\b(?!\s*\()|\[\w+\]|[-+*() ]"
_ASSIGN = rf"([A-Za-z_]\w*) = (?!.*\*\*)(?:{_TOKEN})+"
_PAYBACK = 40_000  # Python march steps that take as long as a compile: 29,000-55,000 at n = 2..5
_STEPS: dict = {}  # (n, delta_n_to_exposed) -> steps this process has marched or is about to


def _translate(name: str, backward: bool, dim: int, prologue: list[str], loop: list[str], marched):
    """C function ``name`` running the ``loop`` lines of a march from i0 to i1, ``backward`` or not,
    and stopping as it does where a ``marched`` row is below zero; ``enter(pr, omega, y, a, h)``,
    which runs the ``prologue`` and returns the values the loop starts from, y0.. first; their
    count.  ValueError for a loop line but ``x = expr``."""
    header, at = _LOOPS[backward]
    ys = [f"y{c}" for c in range(dim)]
    save, row = (" ".join(f"{to}[{c}] = {y};" for c, y in enumerate(ys)) for to in ("inout_", "row_"))
    bound = {"h", *(x for line in prologue for x in re.findall(r"\w+", line.split(" = ")[0]))}
    body, declared = [], bound | {"i", "j"}
    for line in loop:  # a name the prologue does not bind is step-local
        if not (match := re.fullmatch(_ASSIGN, line)):
            raise ValueError(f"no C translation for the generated line {line!r}")
        body.append(("" if match[1] in declared else "double ") + f"{line};")
        declared.add(match[1])
    if marched:
        body.append(f"if ({' || '.join(f'y{c} < 0.0' for c in marched)}) {{ {save} return {at}; }}")
    body.append(f"double *row_ = out + {dim} * {at}; {row}")
    inputs = ys + sorted(bound & set(re.findall(r"\w+", "\n".join(body))) - set(ys))
    arrays = ", ".join(f"const double *{x}" for x in ("vn", "un", "vm", "um", "S", "E", "A", "I"))
    c = [f"long {name}(double *inout_, long i0, long i1, double *out, {arrays}) {{", "long i, j;"]
    c += [f"double {x} = inout_[{k}];" for k, x in enumerate(inputs)]
    c += [header, *body, "}", save, "return 0;", "}"]
    enter = ["def enter(pr, omega, y, a, h):", *(f"    {line}" for line in prologue)]
    exec("\n".join([*enter, f"    return [{', '.join(inputs)}]"]), namespace := {})
    return "\n".join(c), namespace["enter"], len(inputs)


def _run(fn, enter, size, pr, omega, y, a, h, i0, i1, out, vn, un, vm, um, *cols):
    """``march`` of ``model._march_lines`` on its C loop ``fn``: the node it stopped at, or 0,
    and the value there."""
    import ctypes  # with the first compile, not with the package
    views = [memoryview(x) for x in (out, vn, un, vm, um, *cols)]
    need = (len(y) * (i1 + 1), i1 + 1, i1 + 1, *(i1,) * 6)  # doubles the loop may index
    if i0 < 0 or any(v.format != "d" or not v.c_contiguous or v.nbytes < 8 * k for v, k in zip(views, need)):
        raise IndexError(f"march from node {i0} to {i1} out of its buffers")
    args = [ctypes.c_double.from_buffer(v) for v in views] + [None] * (9 - len(views))
    inout = (ctypes.c_double * size)(*enter(pr, omega, y, a, h))
    return fn(inout, i0, i1, *args), inout[: len(y)]


def _marches(n: int, to_exposed: bool, steps: int) -> dict | None:
    """``_library(n, to_exposed)`` once its marches, these ``steps`` included, reach ``_PAYBACK``."""
    _STEPS[n, to_exposed] = steps = _STEPS.get((n, to_exposed), 0) + steps
    return _library(n, to_exposed) if steps >= _PAYBACK else None


@functools.cache
def _library(n: int, to_exposed: bool) -> dict | None:
    """The C marches of n doses by costate flag, from one shared object compiled in a temporary
    directory, or None where that fails; logs which marches run, with the time or the reason."""
    import ctypes
    import subprocess
    import tempfile

    from .model import _source  # which imports this module

    marches = [_translate(f"march{k}", costate, n + 6, *_source(n, to_exposed, costate, True)[1:])
               for k, costate in enumerate(_KINDS)]
    started = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cmd = ["cc", *_FLAGS, "-x", "c", "-", "-o", f"{tmp}/march.so"]
            source = "\n".join([_HEADER, *(c for c, *_ in marches)])
            subprocess.run(cmd, input=source, text=True, check=True, capture_output=True, timeout=60)
            lib = ctypes.CDLL(cmd[-1])
    except (OSError, subprocess.SubprocessError) as exc:
        log.debug("n=%d, delta_n_to_exposed=%s: Python marches (%s)", n, to_exposed, exc)
        return None
    log.debug("n=%d, delta_n_to_exposed=%s: C marches from step %d, compiled in %.3f s", n, to_exposed,
              _STEPS.get((n, to_exposed), 0), time.perf_counter() - started)
    double = ctypes.POINTER(ctypes.c_double)
    proto = ctypes.CFUNCTYPE(ctypes.c_long, double, ctypes.c_long, ctypes.c_long, *[double] * 9)
    return {kind: functools.partial(_run, proto((f"march{k}", lib)), *rest)
            for k, (kind, (_, *rest)) in enumerate(zip(_KINDS, marches))}
