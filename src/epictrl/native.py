"""The sweep's marches as C loops built from the generated parts of the Python marches
(``model._march_lines``), bitwise equal to them under ``_FLAGS`` and ``_HEADER``, once a process
has marched enough steps to pay for it, and in the same library a "%.12g" CSV writer (_format)."""

import functools
import logging
import re
import time

import numpy as np

log = logging.getLogger("epictrl")

_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_HEADER = "#include <float.h>\n#if FLT_EVAL_METHOD != 0\n#error doubles evaluated wider\n#endif"
_KINDS = (False, True)  # the costate flag of each of the sweep's marches
# by costate flag, the loop of the march and the node each of its steps writes
_LOOPS = {False: ("for (i = i0; i < i1; i++) {", "j"), True: ("for (i = i1 - 1; i > i0 - 1; i--) {", "i")}
# names, numbers, subscripts, +, - and *; no division (C's truncates integers), power or call
_TOKEN = r"\d+\.\d+\b|\d+\b|[A-Za-z_]\w*\b(?!\s*\()|\[\w+\]|[-+*() ]"
_ASSIGN = rf"([A-Za-z_]\w*) = (?!.*\*\*)(?:{_TOKEN})+"
_PAYBACK = 40_000  # Python steps a compile costs, 37,000-73,000 at n = 2..5, less ~8,000 its CSV writer saves
_STEPS: dict = {}  # (n, delta_n_to_exposed) -> steps this process has marched or is about to
_FORMAT = "static const double P10[] = {%s};" % ", ".join(f"1e{k}" for k in range(23)) + r"""
static double scaled(double a, int p) { return p < 0 ? a / P10[-p] : a * P10[p]; }
long format12(const double *x, long i, long size, long cols, char *out, long long *at, double *back) {
    char *o = out + *at, d[12];
    for (; i < size; i++) {
        union { double f; unsigned long long b; } u = {x[i]};
        double a = x[i] < 0.0 ? -x[i] : x[i], m, f;
        int e = ((int)(u.b >> 52 & 0x7ff) - 1023) * 78913 >> 18, j, nd = 12, p;  /* floor(log10 a) or 1 less */
        long long q = 0;
        if (a != 0.0) {  /* nan, inf and subnormals have e out of range */
            if (e < -11 || e > 32) break;
            if ((m = scaled(a, 11 - e)) >= 1e12) m = scaled(a, 11 - ++e);
            if (!(m >= 1e11 && m < 1e12) || e > 32) break;
            q = (long long)m;
            if ((f = m - (double)q) > 0.5 - 1.0 / 4096 && f < 0.5 + 1.0 / 4096) break;  /* near a tie */
            if (f > 0.5 && ++q == 1000000000000LL) q /= 10, e++;
        } else e = 0;
        back[i] = u.b >> 63 ? -scaled((double)q, e - 11) : scaled((double)q, e - 11);
        for (j = 11; j >= 0; j--, q /= 10) d[j] = (char)('0' + q % 10);
        while (nd > 1 && d[nd - 1] == '0') nd--;
        if (u.b >> 63) *o++ = '-';
        p = e < -4 || e > 11 ? 0 : e;  /* the digit before the point; d[j < 0] are leading zeros */
        for (j = p < 0 ? p : 0; j < nd || j <= p; j++) {
            if (j == p + 1) *o++ = '.';
            *o++ = j < 0 ? '0' : d[j];
        }
        if (e < -4 || e > 11)
            *o++ = 'e', *o++ = e < 0 ? '-' : '+', e = e < 0 ? -e : e,
            *o++ = (char)('0' + e / 10), *o++ = (char)('0' + e % 10);
        if ((i + 1) % cols) *o++ = ','; else *o++ = '\r', *o++ = '\n';
    }
    *at = o - out;
    return i;
}
"""


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


def _format(fn, table: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The rows of the 2-D ``table`` as CSV text of "%.12g" fields, and the values those read back
    as, bitwise Python's ``%`` and ``float``: ``fn`` (C's ``format12``) scales |x| by an exact
    10^(11-e) into [1e11, 1e12) with one rounding, to m within 2^-14 of the exact product, so m
    rounded is ``%``'s correctly rounded significand q (Gay 1990) unless m is within 2^-12 of a
    tie; q·10^(e-11), one rounding of exact operands, is ``float`` (Clinger, PLDI 1990).  ``fn``
    returns the index of a value near a tie, outside [1e-11, 1e33), nan or inf; Python writes it."""
    x = np.ascontiguousarray(table, dtype=float)
    cols, flat, back = x.shape[1], x.reshape(-1), np.empty_like(x)
    out, at, i = np.empty(21 * x.size, np.uint8), np.zeros(1, np.int64), 0  # 21 bytes a field at most
    while (i := fn(x.ctypes.data, i, x.size, cols, out.ctypes.data, at.ctypes.data, back.ctypes.data)) < x.size:
        back.flat[i] = float(field := b"%.12g" % flat[i])
        field += b"," if (i + 1) % cols else b"\r\n"
        out[at[0] : at[0] + len(field)] = np.frombuffer(field, np.uint8)
        at[0], i = at[0] + len(field), i + 1
    return out[: at[0]].tobytes(), back


def _marches(n: int, to_exposed: bool, steps: int) -> dict | None:
    """``_library(n, to_exposed)`` once its marches, these ``steps`` included, reach ``_PAYBACK``."""
    _STEPS[n, to_exposed] = steps = _STEPS.get((n, to_exposed), 0) + steps
    return _library(n, to_exposed) if steps >= _PAYBACK else None


@functools.cache
def _library(n: int, to_exposed: bool) -> dict | None:
    """The C marches of n doses by costate flag and, as "format", ``_format`` on its C, from one
    shared object compiled in a temporary directory, or None where that fails; logs which run, and
    the time or the reason."""
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
            source = "\n".join([_HEADER, *(c for c, *_ in marches), _FORMAT])
            subprocess.run(cmd, input=source, text=True, check=True, capture_output=True, timeout=60)
            lib = ctypes.CDLL(cmd[-1])
    except (OSError, subprocess.SubprocessError) as exc:
        log.debug("n=%d, delta_n_to_exposed=%s: Python marches (%s)", n, to_exposed, exc)
        return None
    log.debug("n=%d, delta_n_to_exposed=%s: C marches from step %d, compiled in %.3f s", n, to_exposed,
              _STEPS.get((n, to_exposed), 0), time.perf_counter() - started)
    double = ctypes.POINTER(ctypes.c_double)
    proto = ctypes.CFUNCTYPE(ctypes.c_long, double, ctypes.c_long, ctypes.c_long, *[double] * 9)
    fmt = ctypes.CFUNCTYPE(ctypes.c_long, ctypes.c_void_p, *[ctypes.c_long] * 3, *[ctypes.c_void_p] * 3)
    return {"format": functools.partial(_format, fmt(("format12", lib))),
            **{kind: functools.partial(_run, proto((f"march{k}", lib)), *rest)
               for k, (kind, (_, *rest)) in enumerate(zip(_KINDS, marches))}}
