"""High-throughput point counts of w^2 = f6(x, y, z) over F_{p^d}.

The count is N = #P^2(F_q) + sum over P^2(F_q) of chi(f6(P)), which is
well defined on projective points because chi(lambda^6 f) = chi(f).  The
sum is taken chart by chart: (1 : y : z) with q^2 points, (0 : 1 : z)
with q points, and (0 : 0 : 1).

f6 has coefficients in F_p, so f6(1, y^p, z^p) = f6(1, y, z)^p; as p is
odd, chi(a^p) = chi(a), and the character sum over z of the row y is
constant on the Frobenius orbit of y.  The affine chart therefore
evaluates the row y = 0 and one row per orbit of y -> y^p on F_q^*
(k -> p*k mod (q - 1) on log indices), each weighted by its orbit size:
about q/d rows instead of q.

The hot loop works entirely in the discrete-log domain of the field's
tables (zech_tables): for fixed y the sextic f6(1, y, z) collapses
to seven per-y coefficients, each z-monomial value is a log gather, and
additions run through a Zech table.  Everything is vectorized with
numpy over blocks of (row, z) pairs in int32 logs; the last addition
looks up only the quadratic character.

With several workers, a count above _FORK_MIN_ELEMS (row, z) pairs cuts
the orbit rows into equal shares (every row costs q - 1 points), at most
one per CPU the process may run on.  The process sums the first share
itself and forks one child per other share once the tables are built, so
a child inherits them and pays no start-up beyond the fork (about 4 ms on
a 2-core VM, against 19-27 ns per (row, z) pair of kernel work).  Each
child writes its exact subtotal as decimal text to a pipe and leaves
through os._exit; the total is independent of worker count and
scheduling.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# one SHA-256 per count series, for the cache fingerprint: CPython's own
# module, as hashlib's would map OpenSSL's libcrypto, 3.4 MB resident per
# process (and the same digest)
try:
    from _sha256 import sha256
except ImportError:  # CPython 3.12 and later, other interpreters
    from hashlib import sha256

from .errors import (BudgetExceededError, CacheFileError, MathError,
                     SingularReductionError, WeilBoundError)
from .ffield import (FieldCtx, _enc_digits, _zp_mod, _zp_mul, _zp_powmod,
                     factorize, field_create)
from .forms import IntForm, ModForm, reduce_mod

H2_DIM = 22  # second Betti number of a K3 surface
DEFAULT_ZECH_LIMIT = 1 << 22
MANDATORY_Q2_LIMIT = 4_000_000_000  # desk-scale policy: q^2 at most 4e9
_BLOCK_ELEMS = 1 << 16  # (row, z) pairs per kernel block: buffers stay in cache
# a count forks only above this many (row, z) pairs, about 20 ms of kernel
# time: a 2-way split saves half of that and costs about as much in fork
# and copy-on-write (2-core VM: p = 3, d = 7, 0.69M pairs, 20 ms split
# against 18.5 ms serial; p = 5, d = 5, 1.96M pairs, 32 ms against 44 ms)
_FORK_MIN_ELEMS = 1 << 20
_NEG = -(1 << 30)  # a zero in the count kernel's int32 logs: any negative


def fingerprint_mod_p(f6: IntForm, p: int) -> str:
    """SHA-256 of the canonical serialization of f6 mod p, so cache entries
    survive equivalent integer lifts."""
    ctx = field_create(p, 1)
    return sha256(reduce_mod(f6, ctx).serialize().encode()).hexdigest()


@dataclass(frozen=True)
class CountRecord:
    p: int
    d: int
    N: int
    fingerprint: str
    wall_time_ms: float = field(compare=False, default=0.0)

    @property
    def q(self) -> int:
        return self.p ** self.d

    @property
    def trace(self) -> int:
        return trace_from_count(self.N, self.q)


@dataclass
class CountSeries:
    p: int
    dmax: int
    records: tuple
    sources: tuple  # per-d tag: computed | cached | external

    def counts(self):
        return [r.N for r in self.records]

    def traces(self):
        return [r.trace for r in self.records]


def trace_from_count(N: int, q: int) -> int:
    """Frobenius trace on H^2: t = N - 1 - q^2, with the Weil sanity bound."""
    t = N - 1 - q * q
    if abs(t) > H2_DIM * q:
        raise WeilBoundError(
            f"trace {t} violates |t| <= {H2_DIM} q = {H2_DIM * q}; the count is wrong")
    return t


# ---------------------------------------------------------------------------
# log tables and the log-domain kernel


def check_table_budget(q: int):
    """Raise BudgetExceededError when F_q is above the Zech table limit;
    nothing is built, not even the field."""
    if q > DEFAULT_ZECH_LIMIT:
        raise BudgetExceededError(f"F_{q} needs Zech tables, which stop at "
                                  f"q <= {DEFAULT_ZECH_LIMIT}")


@functools.lru_cache(maxsize=None)
def zech_tables(ctx: FieldCtx):
    """(exp, log, zech) over the generator g of least encoding, as
    read-only int64 arrays: exp[k] is the encoding of g^k, log[x] the log
    of the element of encoding x (-1 at zero) and zech[k] the log of 1 +
    g^k.  Built once per context; above DEFAULT_ZECH_LIMIT they raise
    BudgetExceededError."""
    check_table_budget(ctx.q)
    p, d, q, modulus = ctx.p, ctx.d, ctx.q, ctx.modulus
    q1 = q - 1
    # g: no power (q-1)/r of it is 1, for the primes r dividing q - 1
    prime_divs = list(factorize(q1))
    gen = next(g for g in (_enc_digits(enc, p, d) for enc in range(2, q))
               if all(_zp_powmod(g, q1 // r, modulus, p) != [1]
                      for r in prime_divs))
    # multiply-by-generator matrix: column j = gen * t^j mod modulus
    cols = []
    for j in range(d):
        col = _zp_mod(_zp_mul(gen, [0] * j + [1], p), modulus, p)
        cols.append(col + [0] * (d - len(col)))
    mg = np.array(cols, dtype=np.int64).T  # acts on coefficient columns
    pvec = p ** np.arange(d, dtype=np.int64)
    exp = np.empty(q1, dtype=np.int64)
    block = min(q1, 4096)
    # rows of x are the coefficient vectors of g^0, ..., g^(block-1),
    # filled by doubling: rows [n, 2n) are rows [0, n) times mg^n
    x = np.zeros((block, d), dtype=np.int64)
    x[0, 0] = 1
    mn, n = mg, 1
    while n < block:
        take = min(n, block - n)
        x[n:n + take] = x[:take].dot(mn.T) % p
        mn = mn.dot(mn) % p
        n += take
    exp[:block] = x.dot(pvec)
    # the loop below runs only when block = 4096 = n, so mn = mg^block
    pos = block
    cur = x
    while pos < q1:
        cur = cur.dot(mn.T) % p
        take = min(block, q1 - pos)
        exp[pos:pos + take] = cur[:take].dot(pvec)
        pos += take
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q1, dtype=np.int64)
    # 1 + g^k: bump the constant coefficient, with wraparound at p-1
    c0 = exp % p
    e_plus = np.where(c0 == p - 1, exp - (p - 1), exp + 1)
    zech = log[e_plus].copy()
    for a in (exp, log, zech):
        a.setflags(write=False)
    return exp, log, zech


def _log_horner(ctx: FieldCtx, coef_logs, xlogs):
    """sum_i c_i x^i by Horner's rule on log indices, where any negative
    value is zero and results are logs modulo q - 1 but not reduced; the
    logs c_i may be scalars or arrays that broadcast against xlogs.  Each
    step multiplies by x (adds logs) and adds c_i through the Zech table:
    a + c = c (1 + a/c)."""
    q1, zech = ctx.q - 1, zech_tables(ctx)[2]
    acc = np.full(np.shape(xlogs), -1, dtype=np.int64)
    for c in coef_logs[::-1]:
        a = np.where((acc < 0) | (xlogs < 0), -1, acc + xlogs)
        zt = zech[(a - c) % q1]
        acc = np.where(c < 0, a, np.where(a < 0, c,
                                          np.where(zt < 0, -1, c + zt)))
    return acc


def _coef_log_matrix(ctx: FieldCtx, f: ModForm) -> np.ndarray:
    """M[b, c] = log of the coefficient of x^(n-b-c) y^b z^c, -1 when absent.

    The form may live over ctx itself or over its prime subfield, whose
    encodings are the same in ctx."""
    if f.ctx is not ctx and (f.ctx.p != ctx.p or f.ctx.d != 1):
        raise ValueError("form is not defined over this field or its prime subfield")
    n = f.degree
    m = np.full((n + 1, n + 1), -1, dtype=np.int64)
    log = zech_tables(ctx)[1]
    for (a, b, c), coef in f.coeffs.items():
        m[b, c] = log[coef]
    return m


def _chi_sum(logs) -> int:
    """Sum of the quadratic character over an array of log values."""
    valid = logs >= 0
    odd = int(np.count_nonzero(logs[valid] & 1))
    return int(np.count_nonzero(valid)) - 2 * odd


def _frobenius_orbits(ctx):
    """Orbits of Frobenius y -> y^p on F_q^*, which acts on log indices as
    k -> p*k mod (q-1): the least index of each orbit and the orbit size."""
    q1 = ctx.q - 1
    k = np.arange(q1, dtype=np.int64)
    lead = k.copy()
    cur = k
    for _ in range(ctx.d - 1):
        cur = cur * ctx.p % q1
        np.minimum(lead, cur, out=lead)
    reps = np.flatnonzero(lead == k)
    return reps, np.bincount(lead, minlength=q1)[reps]


def _affine_rows(ctx):
    """Rows of the chart (1 : y : z) that the count evaluates, as y log
    indices (-1 for y = 0) with integer weights: y = 0 once and one
    representative per Frobenius orbit, weighted by the orbit size."""
    reps, sizes = _frobenius_orbits(ctx)
    return (np.concatenate(([-1], reps)).astype(np.int64),
            np.concatenate(([1], sizes)).astype(np.int64))


def _kernel_tables(ctx):
    """Zech tables for the count kernel, indexed by a - m + 2(q-1) for logs
    a in [0, 3(q-1)) and m in [0, 2(q-1)).

    T[i] is log(g^a + g^m) - m + 2(q-1), or _NEG when the sum is zero, and
    P[i] is chi(g^a + g^m) / chi(g^m).  Index 0 stands for a = 0: np.take
    with mode="clip" sends every negative index there, so a zero needs no
    mask and the index no remainder.  T[0] = 2(q-1) gives the sum g^m and
    P[0] = 1 its character."""
    q1 = ctx.q - 1
    off = 2 * q1
    zech = zech_tables(ctx)[2][(np.arange(5 * q1) - off) % q1]
    T = np.where(zech < 0, _NEG, zech + off).astype(np.int32)
    P = np.where(zech < 0, 0, 1 - 2 * (zech & 1)).astype(np.int8)
    T[0], P[0] = off, 1
    return T, P


def _affine_chart_sum(ctx, coef, ylogs, weights, block_elems=_BLOCK_ELEMS) -> int:
    """Weighted character sum over the chart (1 : y : z) for the rows
    y = g^ylogs (-1 is y = 0); z runs over all of F_q.

    Each row's sum over z is multiplied by its weight, so the rows and
    weights of _affine_rows give the full chart sum.

    For z = g^k the terms c_j(y) z^j, j = n..1, are summed through the
    Zech table T in int32 logs (q <= 2^22 keeps every value in range) with
    _NEG for zero; the last step adds the constant term c_0(y) and looks up
    only the character, through P."""
    n = coef.shape[0] - 1
    q1 = ctx.q - 1
    # per-y coefficient logs of f(1, y, z) as a polynomial in z, lc[j, row]:
    # one Horner pass in y over the columns of coef at once
    lc = _log_horner(ctx, coef[:, :, None], ylogs[None, :])
    nonzero = lc >= 0
    total = int(np.dot(weights, nonzero[0] * (1 - 2 * (lc[0] & 1))))  # z = 0
    lc = np.where(nonzero, lc % q1, -1).astype(np.int32)
    T, P = _kernel_tables(ctx)
    off = 2 * q1
    k = np.arange(q1, dtype=np.int64)
    jk = [(j * k % q1).astype(np.int32) for j in range(n + 1)]
    terms = [j for j in range(n, 0, -1) if nonzero[j].any()]
    rows_per_block = max(1, block_elems // q1)
    size = min(rows_per_block, len(ylogs)) * q1
    bufs = [np.empty(size, dtype=np.int32) for _ in range(3)]
    chi_buf = np.empty(size, dtype=np.int8)
    for r0 in range(0, len(ylogs), rows_per_block):
        r1 = min(r0 + rows_per_block, len(ylogs))
        acc, t, m = (b[:(r1 - r0) * q1].reshape(r1 - r0, q1) for b in bufs)
        if not terms:
            acc.fill(_NEG)
        for i, j in enumerate(terms):
            c = lc[j, r0:r1, None]
            zero_rows = ~nonzero[j, r0:r1]
            if i == 0:
                np.add(c, jk[j], out=acc)
                acc[zero_rows] = _NEG
                continue
            np.add(c - off, jk[j], out=m)
            np.subtract(acc, m, out=t)
            np.take(T, t, out=t, mode="clip")
            np.add(t, m, out=t)
            t[zero_rows] = acc[zero_rows]
            acc, t = t, acc
        # parity-only last step: chi(acc + c_0) = chi(c_0) * P[acc - c_0 + off]
        np.subtract(acc, lc[0, r0:r1, None] - off, out=t)
        chi = chi_buf[:t.size].reshape(t.shape)
        np.take(P, t, out=chi, mode="clip")
        c0 = lc[0, r0:r1]
        row_chi = (1 - 2 * (c0 & 1)) * chi.sum(axis=1, dtype=np.int64)
        for r in np.flatnonzero(c0 < 0):  # c_0(y) = 0: the character of acc
            vals = acc[r]
            row_chi[r] = _chi_sum(vals[vals >= 0])
        total += int(np.dot(weights[r0:r1], row_chi))
    return total


def _line_chart_sum(ctx, coef) -> int:
    """Character sum over the chart (0 : 1 : z)."""
    n = coef.shape[0] - 1
    cz = [int(coef[n - c, c]) for c in range(n + 1)]
    zlogs = np.arange(ctx.q, dtype=np.int64) - 1
    return _chi_sum(_log_horner(ctx, cz, zlogs))


def _point_chart_sum(ctx, coef) -> int:
    """Character value at (0 : 0 : 1)."""
    n = coef.shape[0] - 1
    c = int(coef[0, n])
    return 0 if c < 0 else (1 - 2 * (c & 1))


# ---------------------------------------------------------------------------
# public counting API


def _require_zech(p, d, deep):
    q = p ** d
    if q * q > MANDATORY_Q2_LIMIT and not deep:
        raise BudgetExceededError(
            f"q^2 = {q * q} exceeds the desk-scale budget; pass deep=True "
            "(--deep) or inject the count as an external value")
    ctx = field_create(p, d)
    zech_tables(ctx)  # raises above the Zech limit; forked workers inherit them
    return ctx


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _reap(pid, fd):
    """Read a child's pipe to EOF, then wait for the child: (pid, exit
    code, text written)."""
    chunks = []
    try:
        while chunk := os.read(fd, 4096):
            chunks.append(chunk)
    finally:
        os.close(fd)
        _, status = os.waitpid(pid, 0)
    return pid, os.waitstatus_to_exitcode(status), b"".join(chunks).decode()


def _forked_affine_sum(ctx, coef, ylogs, weights, shares) -> int:
    """_affine_chart_sum over `shares` equal shares of the rows: this
    process sums the first share, one forked child each of the others.

    A child writes its exact subtotal as decimal text to its own pipe and
    leaves through os._exit, with status 0 only after the write, so it
    never returns into the caller or flushes the buffers it inherited.
    Every child is read to EOF and waited for on every path; a child that
    fails makes the count raise, never return a partial sum."""
    parts = list(zip(np.array_split(ylogs, shares),
                     np.array_split(weights, shares)))
    children = []  # (pid, read end of its pipe)
    try:
        for ys, ws in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    os.write(w, str(_affine_chart_sum(ctx, coef, ys, ws)).encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        total = _affine_chart_sum(ctx, coef, *parts[0])
    finally:
        results = [_reap(pid, r) for pid, r in children]
    for pid, status, text in results:
        if status != 0 or not text:
            raise ChildProcessError(f"count worker {pid} exited with status "
                                    f"{status} and subtotal {text!r}")
    return total + sum(int(text) for _, _, text in results)


def count_points(f6: IntForm, p: int, d: int, *, deep: bool = False,
                 workers: int = 1) -> CountRecord:
    """Exact #S(F_{p^d}) for the double cover w^2 = f6."""
    start = time.perf_counter()
    prime_ctx = field_create(p, 1)
    f6p = reduce_mod(f6, prime_ctx)
    if f6p.is_zero():
        raise SingularReductionError(f"f6 vanishes identically mod {p}")
    if f6p.degree != 6:
        raise ValueError("f6 must be a sextic")
    ctx = _require_zech(p, d, deep)
    q = ctx.q
    coef = _coef_log_matrix(ctx, f6p)
    ylogs, weights = _affine_rows(ctx)
    shares = min(workers, _usable_cpus(), len(ylogs))
    if shares > 1 and len(ylogs) * (q - 1) > _FORK_MIN_ELEMS:
        s_affine = _forked_affine_sum(ctx, coef, ylogs, weights, shares)
    else:
        s_affine = _affine_chart_sum(ctx, coef, ylogs, weights)
    s = s_affine + _line_chart_sum(ctx, coef) + _point_chart_sum(ctx, coef)
    n_pts = (q * q + q + 1) + s
    rec = CountRecord(p=p, d=d, N=int(n_pts),
                      fingerprint=fingerprint_mod_p(f6, p),
                      wall_time_ms=(time.perf_counter() - start) * 1e3)
    rec.trace  # Weil sanity check
    return rec


class CacheStore:
    """Append-only newline-delimited count cache keyed by
    (fingerprint, p, d); values are exact decimal integers.

    Reading accepts only a JSON integer N (not a float, a string or a
    bool), and a key that comes again only with the same N: any other
    line makes the file corrupt (CacheFileError naming the line), as a
    count read from it would be a guess."""

    def __init__(self, path):
        self.path = Path(path)
        self._mem: dict[tuple, int] = {}
        self._line_open = False  # the file's last line lacks its newline
        if self.path.exists():
            text = self.path.read_text()
            self._line_open = not text.endswith("\n") and bool(text)
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key = (rec["fingerprint"], rec["p"], rec["d"])
                    N, known = rec["N"], self._mem.get(key)
                except (ValueError, KeyError, TypeError) as exc:
                    raise CacheFileError(f"{self.path}, line {lineno}: not a "
                                         f"count record ({exc})") from None
                if type(N) is not int:
                    raise CacheFileError(f"{self.path}, line {lineno}: N = "
                                         f"{N!r} is not an integer")
                if known is not None and known != N:
                    raise CacheFileError(
                        f"{self.path}, line {lineno}: N = {N} contradicts "
                        f"N = {known} recorded earlier for the same surface, "
                        "p and d")
                self._mem[key] = N

    def get(self, fingerprint: str, p: int, d: int):
        return self._mem.get((fingerprint, p, d))

    def put(self, fingerprint: str, p: int, d: int, N: int, source: str):
        key = (fingerprint, p, d)
        if key in self._mem:
            return
        self._mem[key] = N
        with self.path.open("a") as fh:
            fh.write("\n" * self._line_open + json.dumps(
                {"fingerprint": fingerprint, "p": p, "d": d, "N": N,
                 "source": source}) + "\n")
        self._line_open = False


def count_series(f6: IntForm, p: int, dmax: int, cache: CacheStore | None = None,
                 *, deep: bool = False, workers: int = 1,
                 external: dict[int, int] | None = None) -> CountSeries:
    """Counts for d = 1..dmax with cache reuse and external injection.

    External values (for example published deep counts) are accepted for
    any d and tagged `external`; cache hits are tagged `cached`.  An
    external value that differs from the cached count of the same surface,
    p and d raises MathError: one of them is wrong.
    """
    external = external or {}
    fp = fingerprint_mod_p(f6, p)
    for d, n in sorted(external.items()):
        hit = cache.get(fp, p, d) if cache is not None else None
        if hit is not None and hit != n:
            raise MathError(f"external count N_{d} = {n} contradicts N_{d} = "
                            f"{hit} in the count cache {cache.path}")
    records = []
    sources = []
    for d in range(1, dmax + 1):
        hit = cache.get(fp, p, d) if cache is not None else None
        if d in external:
            rec = CountRecord(p=p, d=d, N=int(external[d]), fingerprint=fp)
            src = "external"
        elif hit is not None:
            rec = CountRecord(p=p, d=d, N=hit, fingerprint=fp)
            src = "cached"
        else:
            rec = count_points(f6, p, d, deep=deep, workers=workers)
            src = "computed"
        rec.trace  # the Weil bound, for injected and cached values too
        if cache is not None:
            cache.put(fp, p, d, rec.N, src)
        records.append(rec)
        sources.append(src)
    return CountSeries(p=p, dmax=dmax, records=tuple(records),
                       sources=tuple(sources))
