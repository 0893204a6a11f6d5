"""The sweep's marches as C translated from their generated lines, bitwise equal to the Python
marches under ``_FLAGS`` and ``_HEADER``, once a process has marched enough steps to pay for it."""

import functools
import logging
import re
import time

log = logging.getLogger("epictrl")

_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_HEADER = "#include <float.h>\n#if FLT_EVAL_METHOD != 0\n#error doubles evaluated wider\n#endif"
_KINDS = (False, True)  # the costate flag of each of the sweep's marches
_LOOPS = {"for i in range(i0, i1):": "for (i = i0; i < i1; i++) {",
          "for i in range(i1 - 1, i0 - 1, -1):": "for (i = i1 - 1; i > i0 - 1; i--) {"}
# names, numbers, subscripts, +, - and *; no division (C's truncates integers), power or call
_TOKEN = r"\d+\.\d+\b|\d+\b|[A-Za-z_]\w*\b(?!\s*\()|\[\w+\]|[-+*() ]"
_ASSIGN = rf"([A-Za-z_]\w*) = (?!.*\*\*)(?:{_TOKEN})+"
_PAYBACK = 40_000  # Python march steps that take as long as a compile: 29,000-55,000 at n = 2..5
_STEPS: dict = {}  # (n, delta_n_to_exposed) -> steps this process has marched or is about to


def _translate(name: str, lines: list[str], dim: int):
    """C function ``name`` running the loop of the march ``lines``; ``enter(pr, omega, y, a, h)``,
    which runs their prologue and returns the values the loop starts from, y0.. first; their count;
    the rows a clamp is passed.  ValueError for a loop line but ``x = expr``, a clamp, a row store."""
    lines = [line[4:] for line in lines[1:-1]]  # less the def and the return
    at = next(k for k, line in enumerate(lines) if line.startswith("for "))
    if lines[at] not in _LOOPS:
        raise ValueError(f"no C translation for the generated loop {lines[at]!r}")
    prologue = [line for line in lines[:at] if not line.startswith("put = ")]
    ys = [f"y{c}" for c in range(dim)]
    save, row = (" ".join(f"{to}[{c}] = {y};" for c, y in enumerate(ys)) for to in ("inout_", "row_"))
    stores = {f"put(out, {8 * dim} * {j}, {', '.join(ys)})": j for j in "ij"}
    bound = {"h", *(x for line in prologue for x in re.findall(r"\w+", line.split(" = ")[0]))}
    body, marched, declared = [], [], bound | {"i", "j"}
    rest = iter(line[4:] for line in lines[at + 1 :])
    for line in rest:
        names = re.findall(r"\b(y\d+) < 0\.0", line)
        test, clamp = " or ".join(f"{y} < 0.0" for y in names), ", ".join(names)
        if match := re.fullmatch(_ASSIGN, line):  # a name the prologue does not bind is step-local
            body.append(("" if match[1] in declared else "double ") + f"{line};")
            declared.add(match[1])
        elif names and line == f"if {test}:" and next(rest, "") == f"    {clamp}, = clamp([{clamp}], j)":
            body.append(f"if ({test.replace(' or ', ' || ')}) {{ {save} return j; }}")
            marched = [ys.index(y) for y in names]
        elif line in stores:
            body.append(f"double *row_ = out + {dim} * {stores[line]}; {row}")
        else:
            raise ValueError(f"no C translation for the generated line {line!r}")
    inputs = ys + sorted(bound & set(re.findall(r"\w+", "\n".join(body))) - set(ys))
    arrays = ", ".join(f"const double *{x}" for x in ("vn", "un", "vm", "um", "S", "E", "A", "I"))
    c = [f"long {name}(double *inout_, long i0, long i1, double *out, {arrays}) {{", "long i, j;"]
    c += [f"double {x} = inout_[{k}];" for k, x in enumerate(inputs)]
    c += [_LOOPS[lines[at]], *body, "}", save, "return 0;", "}"]
    enter = ["def enter(pr, omega, y, a, h):", *(f"    {line}" for line in prologue)]
    exec("\n".join([*enter, f"    return [{', '.join(inputs)}]"]), namespace := {})
    return "\n".join(c), namespace["enter"], len(inputs), marched


def _run(fn, enter, size, marched, pr, omega, y, a, h, i0, i1, out, vn, un, vm, um, *last):
    """``march`` of ``model._march_lines`` on its C loop ``fn``: at a clamp the loop returns the
    node, whose row is clamped and written here before the loop resumes there."""
    import ctypes  # with the first compile, not with the package
    views = [memoryview(x) for x in (out, vn, un, vm, um, *([] if marched else last))]
    need = (len(y) * (i1 + 1), i1 + 1, i1 + 1, *(i1,) * 6)  # doubles the loop may index
    if i0 < 0 or any(v.format != "d" or not v.c_contiguous or v.nbytes < 8 * k for v, k in zip(views, need)):
        raise IndexError(f"march from node {i0} to {i1} out of its buffers")
    args = [ctypes.c_double.from_buffer(v) for v in views] + [None] * (9 - len(views))
    while True:
        inout = (ctypes.c_double * size)(*enter(pr, omega, y, a, h))
        node = fn(inout, i0, i1, *args)
        y = inout[: len(y)]
        if not node:
            return y
        for c, x in zip(marched, last[0]([y[c] for c in marched], node)):
            y[c] = x
        out[node] = y
        a, i0 = (vn[node], un[node]), node


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

    marches = [_translate(f"march{k}", _source(n, to_exposed, costate, True), n + 6)
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
