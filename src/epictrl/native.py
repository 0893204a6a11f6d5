"""The sweep's marches as C loops built from the generated parts of the Python marches
(``model._march_lines``), bitwise equal to them under ``_FLAGS`` and ``_HEADER``, once a process
has marched enough steps to pay for it, and in the same library a "%.12g" CSV writer (_format),
the sweep's step between its passes (_update) and the oracle's segment loop (_segment)."""

import array
import ctypes
import functools
import logging
import re
import time
import weakref

import numpy as np

log = logging.getLogger("epictrl")

_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_HEADER = "#include <float.h>\n#if FLT_EVAL_METHOD != 0\n#error doubles evaluated wider\n#endif"
_KINDS = (False, True)  # the costate flag of each of the sweep's marches
# by costate flag, the loop of the march and the node each of its steps writes
_LOOPS = {False: ("for (i = i0; i < i1; i++) {", "j"), True: ("for (i = i1 - 1; i > i0 - 1; i--) {", "i")}
# names, numbers, subscripts, +, - and *; no division (C's truncates integers), power or call
_TOKEN = r"\d+\.\d+\b|\d+\b|[A-Za-z_]\w*\b(?!\s*\()|\[\w+(?:, \d+)?\]|[-+*() ]"
_ASSIGN = rf"([A-Za-z_]\w*) = (?!.*\*\*)(?:{_TOKEN})+"
# Python steps a compile costs (rent or buy): 37,000-73,000 at n = 2..5 when set, less ~8,000 its CSV
# writer saves; with the update, 0.21-0.35 s of cc (0.05-0.07 s the update) at 3.0-4.4 us a step
_PAYBACK = 40_000
_STEPS: dict = {}  # (n, delta_n_to_exposed) -> steps this process has marched or is about to
_BLOCK = 256  # rows _format writes at a time
_ADDRESSES: dict = {}  # id -> (weak reference, address, rows, width) of each array a C call took
_FORMAT = r"""#include <string.h>
static const double P10[] = {%s};
static const char PAIRS[] = "%s";  /* PAIRS + 2 * k: the two digits of k < 100 */
static double scaled(double a, int p) { return p < 0 ? a / P10[-p] : a * P10[p]; }
static int six(char *d, unsigned long long h) {  /* the six digits of h < 10^6 to d, and how many zeros
    end them: pairs by Anhalt's fixed point, y / 2^32 = h / 10^4 (exact for every h < 10^6) */
    unsigned long long y = h * 429497, p[3];
    for (int k = 0; k < 3; k++)
        p[k] = y >> 32, memcpy(d + 2 * k, PAIRS + 2 * p[k], 2), y = (y & 0xffffffff) * 100;
    return p[2] ? !(p[2] %% 10) : p[1] ? 2 + !(p[1] %% 10) : p[0] ? 4 + !(p[0] %% 10) : 6;
}
/* x[i:size], cols to a row, as text at out + *at; a field's fixed-width copies may run 25 bytes on */
long format12(const double *x, long i, long size, long cols, char *out, long long *at, double *back) {
    char *o = out + *at, d[24] = {0};
    long c = i %% cols;
    for (; i < size; i++) {
        union { double f; unsigned long long b; } u = {x[i]};
        double a = x[i] < 0.0 ? -x[i] : x[i], m, f;
        int e = ((int)(u.b >> 52 & 0x7ff) - 1023) * 78913 >> 18, lo, hi, nd;  /* floor(log10 a) or 1 less */
        long long q = 0;
        if (a != 0.0) {  /* nan, inf and subnormals have e out of range */
            if (e < -12 || e > 32) break;
            e += e == -12;  /* P10 ends at 1e22: a true -12 fails the range test below */
            if ((m = scaled(a, 11 - e)) >= 1e12) m = scaled(a, 11 - ++e);
            if (!(m >= 1e11 && m < 1e12) || e > 32) break;
            q = (long long)m;
            if ((f = m - (double)q) > 0.5 - 1.0 / 4096 && f < 0.5 + 1.0 / 4096) break;  /* near a tie */
            if (f > 0.5 && ++q == 1000000000000LL) q /= 10, e++;
        } else e = 0;
        if (back) back[i] = u.b >> 63 ? -scaled((double)q, e - 11) : scaled((double)q, e - 11);
        lo = six(d + 6, q %% 1000000), hi = six(d, q / 1000000);  /* d: the 12 digits of q */
        nd = q %% 1000000 ? 12 - lo : q ? 6 - hi : 1;  /* up to the last nonzero one */
        *o = '-', o += u.b >> 63;
        if (e < -4 || e > 11) {  /* d.ddde+XX */
            o[0] = d[0], o[1] = '.', memcpy(o + 2, d + 1, 11), o += nd > 1 ? nd + 1 : 1;
            o[0] = 'e', o[1] = e < 0 ? '-' : '+', memcpy(o + 2, PAIRS + 2 * (e < 0 ? -e : e), 2), o += 4;
        } else if (e < 0)  /* 0.000ddd */
            memcpy(o, "0.000", 5), memcpy(o + 1 - e, d, 12), o += 1 - e + nd;
        else  /* ddd.ddd, or ddd */
            memcpy(o, d, 12), memcpy(o + e + 2, d + e + 1, 11), o[e + 1] = '.',
            o += nd > e + 1 ? nd + 1 : e + 1;
        if (++c < cols) *o++ = ','; else c = 0, *o++ = '\r', *o++ = '\n';
    }
    *at = o - out;
    return i;
}
""" % (", ".join(f"1e{k}" for k in range(23)), "".join(f"{k:02d}" for k in range(100)))
# the sweep's step between its passes (_update); k holds omega, sigma0/2, gain/2, sigma0, gain, v_max,
# theta, 1 - theta and gamma, and the rows of out the next u and v, their midpoint v and u and the cells
_UPDATE = r"""
#include <math.h>
static double clip(double x, double lo, double hi) { x = x < lo ? lo : x; return x > hi ? hi : x; }
static double cost(const double *x, double u, double v, const double *k) {
    return k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + k[3] * x[3] + k[4] * u * u + k[5] * v * v;
}
static double interp(double x, const double *t, const double *y) {  /* np.interp on [t[0], t[1]] */
    double s = (y[1] - y[0]) / (t[1] - t[0]), r;
    if (x == t[0] || x == t[1]) return x == t[0] ? y[0] : y[1];
    r = s * (x - t[0]) + y[0];
    if (r != r) r = s * (x - t[1]) + y[1];  /* numpy's retry from the right end */
    return r != r && y[0] == y[1] ? y[0] : r;
}
double update(long nodes, long n, long to_exposed, const double *k, const double *t, const double *pre,
              const double *post, const double *adj, const double *u, const double *v, double *out) {
    double *u1 = out, *v1 = u1 + nodes, *vm = v1 + nodes, *um = vm + nodes, *cells = um + nodes;
    const double *g = k + 11, *x, *p;
    double most = 0.0, ur, vr, w, d;
    long dim = n + 6, j, l, bad = 0;
    for (j = 0; j < nodes; j++) {
        x = post + dim * j, p = adj + dim * j;
        ur = x[3] * (p[3] - p[4]) / k[6];
        w = g[0] * x[0] * (p[0] - p[6]) + g[1] * p[6] * x[6];
        for (l = 1; l < n - 1; l++) w = w + p[6 + l] * (g[l + 1] * x[6 + l] - g[l] * x[5 + l]);
        if (to_exposed) w = w - g[n - 1] * p[5 + n] * x[4 + n];
        vr = w / k[7];
        bad |= ur != ur || vr != vr;
        u1[j] = clip(k[9] * clip(ur, 0.0, 1.0) + k[10] * u[j], 0.0, 1.0);
        v1[j] = clip(k[9] * clip(vr, 0.0, k[8]) + k[10] * v[j], 0.0, k[8]);
        d = fabs(u1[j] - u[j]) + fabs(v1[j] - v[j]) / k[8];
        most = j == 0 || d > most ? d : most;
        if (j == 0) continue;
        w = cost(post + dim * (j - 1), u[j - 1], v[j - 1], k) + cost(pre + dim * j, u[j], v[j], k);
        cells[j - 1] = 0.5 * (t[j] - t[j - 1]) * w;
        vm[j - 1] = interp(0.5 * (t[j - 1] + t[j]), t + j - 1, v1 + j - 1);
        um[j - 1] = interp(0.5 * (t[j - 1] + t[j]), t + j - 1, u1 + j - 1);
    }
    return bad ? NAN : most;
}
"""


def _translate(name: str, backward: bool, dim: int, prologue: list[str], loop: list[str], marched):
    """C function ``name`` running the ``loop`` lines of a march from i0 to i1, ``backward`` or not, and
    stopping as it does where a ``marched`` row is below zero, and ``enter(pr, omega, y, a, h)``, which
    runs the whole ``prologue`` and returns the loop's start values, y0.. first: C reads them from
    ``inout_`` and leaves the last y0.. there.  ValueError for a line but x = expr."""
    header, at = _LOOPS[backward]
    ys = [f"y{c}" for c in range(dim)]
    save, row = (" ".join(f"{to}[{c}] = {y};" for c, y in enumerate(ys)) for to in ("inout_", "row_"))
    local = sorted({"i", at})  # the costate march writes node i's row, and has no j
    body, inputs, enter = _statements("pr, omega, y, a, h", prologue, loop, dim, local, ys)
    if marched:
        body.append(f"if ({' || '.join(f'y{c} < 0.0' for c in marched)}) {{ {save} return {at}; }}")
    body.append(f"double *row_ = out + {dim} * {at}; {row}")
    arrays = ", ".join(f"const double *{x}" for x in ("vn", "un", "vm", "um", "x"))
    c = [f"long {name}(double *inout_, long i0, long i1, double *out, {arrays}) {{", f"long {', '.join(local)};"]
    c += [f"double {x} = inout_[{k}];" for k, x in enumerate(inputs)]
    c += [header, *body, "}", save, "return 0;", "}"]
    return "\n".join(c), enter


def _statements(args: str, prologue: list[str], loop: list[str], dim: int, local, first=()):
    """The ``loop`` lines as C statements, each declaring its name at its first assignment unless the
    ``prologue`` (or h) binds it or ``local`` holds it; ``first``, then the bound names they read; and
    ``enter(args)``, which runs the prologue and returns those names' values.  ValueError for a line
    but x = expr."""
    bound = {"h", *(x for line in prologue for x in re.findall(r"\w+", line.split(" = ")[0]))}
    body, declared = [], bound | set(local)
    for line in loop:  # a name the prologue does not bind is step-local
        if not (match := re.fullmatch(_ASSIGN, line)):
            raise ValueError(f"no C translation for the generated line {line!r}")
        line = re.sub(r"\[(\w+), (\d+)\]", rf"[{dim} * \1 + \2]", line)  # a cell of the state table
        body.append(("" if match[1] in declared else "double ") + f"{line};")
        declared.add(match[1])
    inputs = [*first, *sorted(bound & set(re.findall(r"\w+", "\n".join(body))) - set(first))]
    exec("\n    ".join([f"def enter({args}):", *prologue, f"return [{', '.join(inputs)}]"]), namespace := {})
    return body, inputs, namespace["enter"]


def _kernel(dim: int, prologue: list[str], loop: list[str], rows: list[int]):
    """C's ``segment``: ``oracle._segment`` with the ``loop`` lines of its RK4 step over the ``rows`` it
    marches (``model._kernel_lines``), and ``_segment``'s ``enter(pr, h)`` and row width.  k_ holds omega,
    sigma0/2, gain/2 (as ``cost`` reads them), the negative tolerance, the bound's limit and the inputs;
    g_ the running costs, then the bounds; out_ the value at a fault, then the row-steps."""
    body, inputs, enter = _statements("pr, h", prologue, loop, dim, ["a0_v", "a0_u", *(f"y{c}" for c in rows)])
    w, cell = len(rows), f"y_[{len(rows)} * q_ + r_]"
    return rf"""long segment(long m, long steps, long left, const double *k_, double *y_, double *g_, double *c_, double *i_,
             double *u_, double *v_, const double **lb_, double *out_) {{
    double {", ".join(f"{x} = k_[{8 + j}]" for j, x in enumerate(inputs))}, *b_ = g_ + m, lo_, most_ = 0.0;
    for (long s_ = 0, q_, r_, w_ = 0; s_ < steps && m; s_++, m = most_ > k_[7] ? w_ : m) {{
        for (out_[1] += m, q_ = 0; q_ < m; q_++) {{  /* the step, after the running cost before the first */
            double *x_ = y_ + {w} * q_, a0_v = v_[q_], a0_u = u_[q_], {", ".join(f"y{c} = x_[{p}]" for p, c in enumerate(rows))};
            g_[q_] = s_ ? g_[q_] : cost(x_, a0_u, a0_v, k_); {" ".join(body)} {" ".join(f"x_[{p}] = y{c};" for p, c in enumerate(rows))}
        }}
        for (r_ = 0; r_ < {w}; r_++) {{  /* each compartment's min (NaN if one is), then its fault or clamp */
            for (lo_ = y_[r_], q_ = 1; q_ < m; q_++) lo_ = {cell} < lo_ || {cell} != {cell} ? {cell} : lo_;
            if (lo_ < 0.0 && lo_ < -k_[6]) return out_[0] = lo_, -1 - s_;
            for (q_ = 0; lo_ < 0.0 && q_ < m; q_++) {cell} = {cell} <= 0.0 ? 0.0 : {cell};  /* np.maximum's +0.0 */
        }}
        for (q_ = 0; q_ < m; q_++) {{  /* the trapezoid cell, the bound, the largest bound (NaN if one is) */
            double *x_ = y_ + {w} * q_, right_ = cost(x_, u_[q_], v_[q_], k_);
            c_[q_] = c_[q_] + half * (g_[q_] + right_), g_[q_] = right_, b_[q_] = c_[q_];
            for (r_ = 0; r_ < 3; r_++) b_[q_] = lb_[r_] ? b_[q_] + lb_[r_][left - s_ - 1] * x_[r_ + 1] : b_[q_];
            most_ = !q_ || b_[q_] > most_ || b_[q_] != b_[q_] ? b_[q_] : most_;
        }}
        for (w_ = q_ = 0; most_ > k_[7] && q_ < m; q_++) if (b_[q_] <= k_[7]) {{  /* keep, in order */
            for (r_ = 0; r_ < {w}; r_++) y_[{w} * w_ + r_] = {cell};
            c_[w_] = c_[q_], i_[w_] = i_[q_], g_[w_] = g_[q_], u_[w_] = u_[q_], v_[w_++] = v_[q_];
        }}
    }}
    return m;
}}""", (enter, w)


def _address(x, rows: int, width: int = 0, write: bool = False) -> int:
    """The address of ``x``, a C-contiguous aligned float64 array of ``rows`` or more rows of
    ``width`` values (a vector without), writable to ``write`` it, else IndexError.  Its layout is
    checked, and its address and shape kept, at its first use while it lives: a weak reference
    drops them with it and stops numpy resizing it meanwhile.
    Each use checks the rows, the width and, to write, the flag."""
    hit = _ADDRESSES.get(key := id(x))
    if hit is None or hit[0]() is not x:
        hit = None
        new = isinstance(x, np.ndarray) and x.dtype == float and x.size and x.ndim in (1, 2)
        if new and x.flags.c_contiguous and x.flags.aligned:
            # from_buffer takes the address three times as fast as .ctypes, of writable buffers only
            at = ctypes.addressof(ctypes.c_char.from_buffer(x)) if x.flags.writeable else x.ctypes.data
            shape = len(x), x.shape[1] if x.ndim == 2 else 0
            hit = _ADDRESSES[key] = weakref.ref(x, lambda _: _ADDRESSES.pop(key, None)), at, *shape
    if hit is None or hit[2] < rows or hit[3] != width or write and not x.flags.writeable:
        raise IndexError(f"no buffer of {rows} rows of {width or 1} doubles")
    return hit[1]


def _run(fn, enter, pr, omega, y, a, h, i0, i1, out, vn, un, vm, um, x=None):
    """``march`` of ``model._march_lines`` on its C loop ``fn``: the node it stopped at, or 0, and the
    value there; the loop reads and writes the arrays at ``_address``'s addresses, and starts from
    the one array of values that ``enter`` forms at each call, as the Python march's prologue does."""
    if i0 < 0:
        raise IndexError(f"march from node {i0} to {i1} out of its buffers")
    args = [_address(out, i1 + 1, len(y), write=True), _address(vn, i1 + 1), _address(un, i1 + 1)]
    args += [_address(vm, i1), _address(um, i1), None if x is None else _address(x, i1, len(y))]
    inout = array.array("d", enter(pr, omega, y, a, h))
    return fn(inout.buffer_info()[0], i0, i1, *args), inout[: len(y)].tolist()


def _format(fn, table: np.ndarray, read_back: bool = True) -> tuple[list[bytes], np.ndarray | None]:
    """The rows of the 2-D ``table`` as CSV text of "%.12g" fields, in blocks of ``_BLOCK`` rows so
    that no buffer but the text grows with the table, and with ``read_back`` the values those read
    back as, bitwise Python's ``%`` and ``float``: ``fn`` (C's ``format12``) scales |x| by an exact
    10^(11-e) into [1e11, 1e12) with one rounding, to m within 2^-14 of the exact product, so m
    rounded is ``%``'s correctly rounded significand q (Gay 1990) unless m is within 2^-12 of a tie;
    q·10^(e-11), one rounding of exact operands, is ``float`` (Clinger, PLDI 1990).  ``fn`` returns
    the index of a value near a tie, outside [1e-11, 1e33), nan or inf; Python writes it."""
    x = np.ascontiguousarray(table, dtype=float)
    cols, flat, back, blocks = x.shape[1], x.reshape(-1), np.empty_like(x) if read_back else None, []
    # 21 bytes a field at most, and room for the last field's fixed-width copies
    out, at = np.empty(21 * _BLOCK * cols + 32, np.uint8), np.zeros(1, np.int64)
    args = out.ctypes.data, at.ctypes.data, None if back is None else back.ctypes.data
    for i in range(0, x.size, _BLOCK * cols):
        end, at[0] = min(i + _BLOCK * cols, x.size), 0
        while (i := fn(x.ctypes.data, i, end, cols, *args)) < end:
            field = b"%.12g" % flat[i]
            if back is not None:
                back.flat[i] = float(field)
            field += b"," if (i + 1) % cols else b"\r\n"
            out[at[0] : at[0] + len(field)] = np.frombuffer(field, np.uint8)
            at[0], i = at[0] + len(field), i + 1
        blocks.append(out[: at[0]].tobytes())
    return blocks, back


def _update(fn, pr, weights, gain: float, theta: float, traj, adj, u: np.ndarray, v: np.ndarray, binder=None):
    """One sweep step by ``fn`` (C's ``update``) from the pass ``traj``, ``adj`` of the controls u
    and v: the running-cost cells of ``control._cost_cells``, the relaxed next u and v, their
    midpoint samples (v, u) as ``np.interp`` forms them, and the largest scaled change, or NaN where
    a raw control is NaN; each bitwise its numpy twin ``control._step``'s.  A cell's left node is
    costed on its post row, which equals the pre row off the impulse nodes.  C writes the rows of a
    block, read-only in Python; a sweep's ``binder`` lends two blocks in turn."""
    nodes, dim = len(traj.node_times), pr.n + 6

    def make():  # the constants _UPDATE names k, and the block
        out = np.empty((5, nodes))
        rows = out[0], out[1], out[2, :-1], out[3, :-1], out[4, :-1]
        for x in rows:
            x.setflags(write=False)
        k = [*weights.omega, 0.5 * weights.sigma0, 0.5 * gain, weights.sigma0, gain, pr.v_max, theta, 1.0 - theta]
        return array.array("d", [*k, *pr.gamma]), out, rows

    k, out, (u1, v1, vm, um, cells) = binder.take("update", make) if binder else make()
    tables = [_address(x, nodes, dim) for x in (traj.states_pre, traj.states_post, adj.values_post)]
    ins = [_address(traj.node_times, nodes), *tables, _address(u, nodes), _address(v, nodes)]
    change = fn(nodes, pr.n, pr.delta_n_to_exposed, k.buffer_info()[0], *ins, _address(out, 5, nodes))
    return cells, u1, v1, (vm, um), change


def _segment(fn, enter, width: int, pr, weights, h: float, tol: float, limit: float, lb: dict, y, c, i, u, v,
             first: int, steps: int, left: int):
    """``oracle._segment`` by ``fn`` (C's ``segment``, from ``_kernel``), bitwise: it marches the rows of
    y in place and moves those it keeps to the front, at the addresses ``_address`` checks first."""
    k = [*weights.omega, 0.5 * weights.sigma0, 0.5 * weights.vaccination_gain(pr), tol, limit, *enter(pr, h)]
    m, k, out = len(c), array.array("d", k), array.array("d", [0.0, 0.0])
    args = [_address(y, m, width, write=True), _address(g := np.empty((2, m)), 2, m, write=True)]
    args += [_address(x, m, write=True) for x in (c, i, u, v)]
    lbs = (ctypes.c_void_p * 3)(*(_address(lb[j], left) if j in lb else None for j in (1, 2, 3)))  # E, A, I
    if (kept := fn(m, steps, left, k.buffer_info()[0], *args, lbs, out.buffer_info()[0])) < 0:
        from .model import _too_coarse  # which imports this module
        raise _too_coarse(out[0], (first - kept) * h)
    return y[:kept], c[:kept], i[:kept], int(out[1])


def _marches(n: int, to_exposed: bool, steps: int) -> dict | None:
    """``_library(n, to_exposed)`` once its marches, these ``steps`` included, reach ``_PAYBACK``."""
    _STEPS[n, to_exposed] = steps = _STEPS.get((n, to_exposed), 0) + steps
    return _library(n, to_exposed) if steps >= _PAYBACK else None


@functools.cache
def _library(n: int, to_exposed: bool) -> dict | None:
    """The C marches of n doses by costate flag and, as "format" and "update", ``_format`` and
    ``_update`` on their C, from one shared object compiled in a temporary directory, or None where
    that fails; logs which run, and the time or the reason."""
    import subprocess
    import tempfile

    from .model import _source  # which imports this module

    marches = [_translate(f"march{k}", costate, n + 6, *_source(n, to_exposed, costate, True)[1:])
               for k, costate in enumerate(_KINDS)]
    kernel, kernel_args = _kernel(n + 6, *_source(n, to_exposed, False, False)[1:])
    started = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cmd = ["cc", *_FLAGS, "-x", "c", "-", "-o", f"{tmp}/march.so"]
            source = "\n".join([_HEADER, *(c for c, *_ in marches), _FORMAT, _UPDATE, kernel])
            subprocess.run(cmd, input=source, text=True, check=True, capture_output=True, timeout=60)
            lib = ctypes.CDLL(cmd[-1])
    except (OSError, subprocess.SubprocessError) as exc:
        log.debug("n=%d, delta_n_to_exposed=%s: Python marches (%s)", n, to_exposed, exc)
        return None
    log.debug("n=%d, delta_n_to_exposed=%s: C marches from step %d, compiled in %.3f s", n, to_exposed,
              _STEPS.get((n, to_exposed), 0), time.perf_counter() - started)
    proto = ctypes.CFUNCTYPE(ctypes.c_long, ctypes.c_void_p, *[ctypes.c_long] * 2, *[ctypes.c_void_p] * 6)
    fmt = ctypes.CFUNCTYPE(ctypes.c_long, ctypes.c_void_p, *[ctypes.c_long] * 3, *[ctypes.c_void_p] * 3)
    step = ctypes.CFUNCTYPE(ctypes.c_double, *[ctypes.c_long] * 3, *[ctypes.c_void_p] * 8)
    segment = ctypes.CFUNCTYPE(ctypes.c_long, *[ctypes.c_long] * 3, *[ctypes.c_void_p] * 9)
    return {"format": functools.partial(_format, fmt(("format12", lib))),
            "update": functools.partial(_update, step(("update", lib))),
            "segment": functools.partial(_segment, segment(("segment", lib)), *kernel_args),
            **{kind: functools.partial(_run, proto((f"march{k}", lib)), enter)
               for k, (kind, (_, enter)) in enumerate(zip(_KINDS, marches))}}
