"""Reference checks on the program's reports.

Every check returns a list of error strings; an operation counts as failed
when its list is not empty.  Polynomial identities are checked with the
small integer arithmetic below, not with the program's own forms.
"""

from __future__ import annotations

import json
import re

from reference import COUNTS, R_FACTOR, SURFACES


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expected_char_poly(name):
    """(t - q)^k R as the comma-separated descending list the report uses."""
    q, k, _ = SURFACES[name]
    coeffs = list(R_FACTOR[name])
    for _ in range(k):
        coeffs = poly_mul(coeffs, [1, -q])
    return ",".join(str(c) for c in coeffs)


def load_report(stdout):
    """The JSON report a run printed, or None when it printed none."""
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return rep if isinstance(rep, dict) else None


def check_certify(name, rc, stdout, sources, cache_path=None):
    """A certify --json report against the reference verdict, polynomial,
    counts and expected per-degree source tags; with cache_path, also the
    cache file the run wrote."""
    if rc != 0:
        return [f"{name}: exit code {rc}"]
    rep = load_report(stdout)
    if rep is None:
        return [f"{name}: no JSON report"]
    errors = []
    p, _, verdict = SURFACES[name]
    if rep.get("verdict") != verdict:
        errors.append(f"{name}: verdict {rep.get('verdict')!r}, want {verdict!r}")
    if rep.get("char_poly") != expected_char_poly(name):
        errors.append(f"{name}: char_poly differs from the reference factor")
    counts = [c["N"] for c in rep.get("counts", [])]
    if counts != COUNTS[name][:len(sources)]:
        errors.append(f"{name}: counts {counts} differ from the reference")
    got = [c["source"] for c in rep.get("counts", [])]
    if got != list(sources):
        errors.append(f"{name}: count sources {got}, want {list(sources)}")
    if cache_path is not None:
        with open(cache_path) as fh:
            cached = [load_report(line) for line in fh if line.strip()]
        if None in cached or sorted(
                (c.get("p"), c.get("d"), c.get("N")) for c in cached) != \
                [(p, d, n) for d, n in enumerate(COUNTS[name][:len(sources)], 1)]:
            errors.append(f"{name}: cache file does not hold the reference counts")
    return errors


def report_timing_s(rc, stdout):
    """The report's own `timing_ms`, in seconds; 0 without a report."""
    rep = load_report(stdout) if rc == 0 else None
    return rep["timing_ms"] / 1e3 if rep and "timing_ms" in rep else 0.0


# ---------------------------------------------------------------------------
# sparse integer forms: {(a, b, c): coeff}


def form_mul(f, g):
    out: dict = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            m = (a + d, b + e, c + h)
            out[m] = out.get(m, 0) + x * y
    return out


def form_sub(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) - c
    return out


def form_mod(f, p):
    return {m: c % p for m, c in f.items() if c % p}


def parse_form(text):
    """Inverse of the program's `c*x^a*y^b*z^c+...` serialization."""
    if text == "0":
        return {}
    out = {}
    for term in text.split("+"):
        c, x, y, z = term.split("*")
        out[(int(x[2:]), int(y[2:]), int(z[2:]))] = int(c)
    return out


def parse_line(text):
    """`1*x+2*z` -> {(1, 0, 0): 1, (0, 0, 1): 2}."""
    out = {}
    for term in text.split("+"):
        c, v = term.split("*")
        out[{"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[v]] = int(c)
    return out


def rank_mod_p(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_WITNESS = re.compile(r"singular mod (\d+): witness \(([^)]*)\) over F_\d+\^(\d+)")


def _partials(f6):
    out = []
    for i in range(3):
        d = {}
        for m, c in f6.items():
            if m[i]:
                e = list(m)
                e[i] -= 1
                d[tuple(e)] = c * m[i]
        out.append(d)
    return out


def _is_common_zero(f6, p, field_degree, encoded):
    """The witness is given by the canonical integer encodings of its
    coordinates over F_{p^e}; evaluate f6 and its partials there."""
    from k3cert.ffield import field_create

    ctx = field_create(p, field_degree)
    pt = [ctx.from_enc(e) for e in encoded]
    if all(c.is_zero() for c in pt):
        return False
    for form in [f6] + _partials(f6):
        acc = ctx.zero()
        for (a, b, c), coeff in form.items():
            acc = acc + ctx.from_int(coeff) * pt[0] ** a * pt[1] ** b * pt[2] ** c
        if not acc.is_zero():
            return False
    return True


def check_obstruct(f6, p, rc, stdout, stderr):
    """An obstruct --json run on a generated sextic.

    Returns (errors, summary).  A singular sextic must exit with code 2
    and a witness that is a common zero of f6 and its partials.  Along
    every rational-split tritangent the program's decomposition must
    satisfy f6 = f3^2 + l f5 (mod p), the reported G must equal
    (f6 - f3^2 - l f5) / p, and the verdict must agree with the rank of
    the reported 7x6 system over F_p.
    """
    if rc == 2:
        m = _WITNESS.search(stderr)
        if m is None or int(m.group(1)) != p:
            return [f"exit 2 without a singular witness: {stderr.strip()!r}"], None
        encoded = [int(x) for x in m.group(2).split(",")]
        if not _is_common_zero(f6, p, int(m.group(3)), encoded):
            return [f"witness {encoded} is not a singular point"], None
        return [], ["singular"]
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()!r}"], None
    rep = load_report(stdout)
    if rep is None or not isinstance(rep.get("tritangents"), list):
        return ["no JSON report with tritangents"], None
    from k3cert.forms import IntForm
    from k3cert.geom import decompose_along_line

    errors, summary = [], []
    for tri in rep["tritangents"]:
        ob = tri.get("obstruction")
        if tri["split_field_degree"] != 1:
            if ob is not None:
                errors.append(f"{tri['line']}: obstruction on a non-rational split")
            summary.append([tri["line"], tri["split_field_degree"], None])
            continue
        line = parse_line(tri["line"])
        f3, f5 = decompose_along_line(IntForm(f6, 6), tuple(
            line.get(m, 0) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))), p)
        rest = form_sub(form_sub(f6, form_mul(f3.coeffs, f3.coeffs)),
                        form_mul(line, f5.coeffs))
        if form_mod(rest, p):
            errors.append(f"{tri['line']}: f6 != f3^2 + l f5 (mod {p})")
        if {m: c for m, c in rest.items() if c} != \
                {m: p * c for m, c in parse_form(ob["G"]).items()}:
            errors.append(f"{tri['line']}: reported G != (f6 - f3^2 - l f5)/p")
        solvable = rank_mod_p(ob["matrix"], p) == rank_mod_p(
            [r + [b] for r, b in zip(ob["matrix"], ob["rhs"])], p)
        if ob["verdict"] != ("vanishes" if solvable else "nonvanishing"):
            errors.append(f"{tri['line']}: verdict {ob['verdict']} disagrees "
                          "with the rank of its system")
        summary.append([tri["line"], 1, ob["verdict"]])
    return errors, summary


def outcome_counts(ops):
    """Input and outcome properties of one pass, from (kind, rc, stdout)
    of its operations: generated sextics, singular ones, ones with a
    rational-split tritangent, obstruction attempts and nonvanishing
    outcomes over all reports, and the count source tags of certify."""
    out = {"sextics": 0, "singular": 0, "rational_split": 0,
           "obstructions": 0, "nonvanishing": 0, "cached": 0, "computed": 0}
    for kind, rc, stdout in ops:
        if kind == "sextic":
            out["sextics"] += 1
            out["singular"] += rc == 2
        rep = load_report(stdout) if rc == 0 else None
        if rep is None:
            continue
        for c in rep.get("counts", []):
            if c["source"] in ("cached", "computed"):
                out[c["source"]] += 1
        obs = [t["obstruction"] for t in rep.get("tritangents", [])
               if isinstance(t, dict) and "obstruction" in t]
        obs += [o["obstruction"] for o in rep.get("obstructions", [])]
        if kind == "sextic":
            out["rational_split"] += bool(obs)
        out["obstructions"] += len(obs)
        out["nonvanishing"] += sum(o["verdict"] == "nonvanishing" for o in obs)
    return out
