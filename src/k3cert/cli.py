"""Command-line pipeline: surface files, stage commands, certification.

Surface files are plain text, one `key: value` per line with repeated
keys accumulating monomials:

    name: my-surface
    # coefficient of x^a y^b z^c as "a b c coeff"
    f6: 6 0 0 4
    f6: 5 1 0 2
    k: 2                      # known q-eigenvalue multiplicity (optional)
    external: 10 3486675052   # published deep count (optional, repeatable)
    gram: -2 6 1 3            # intersection matrix rows (optional)
    conic.1.scale: 1          # conic certificates (optional, grouped)
    conic.1.q2: 2 0 0 2
    ...

Verdicts rest exclusively on exact integer checks.  The certification
rule set mirrors two patterns: a rank upper bound U from the cyclotomic
part of the Frobenius polynomial, a lower bound from provided
intersection data (or the hyperplane class alone), and a nonvanishing
second-order obstruction on a rational-split tritangent, which forces
the geometric rank strictly below the rank of the reduction and hence
caps it at U - 1.  When bounds meet, the rank is proved; otherwise the
report carries bounds plus explicitly-labelled evidence.

Exit codes: 0 verdict or report emitted, 1 usage problem, 2 mathematical
precondition failure (for example singular reduction).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from .count import CacheStore, count_series
from .errors import CacheFileError, MathError
from .ffield import field_create, is_prime
from .forms import IntForm, reduce_mod
from .geom import (
    ConicCert,
    assert_good_reduction,
    find_tritangents,
    verify_conic_identity,
)
from .lattice import gram_rank_disc
from .obstruct import lifts_to_second_order
from .zeta import (H2_DIM, cyclotomic_part, determine_sign, newton_above_hodge,
                   predicted_count)


class UsageError(ValueError):
    pass


# Primes from here on are a usage error on every command; below it, the
# layers refuse what they cannot do (p above the Zech table limit 2^22)
# with BudgetExceededError, exit code 2.
PRIME_BOUND = 1 << 31


# ---------------------------------------------------------------------------
# surface files


@dataclass
class SurfaceSpec:
    name: str
    f6: IntForm
    k: int | None = None
    external_counts: dict = field(default_factory=dict)
    conics: list = field(default_factory=list)
    gram: tuple | None = None


def _parse_monomial_line(value: str, degree: int):
    parts = value.split()
    if len(parts) != 4:
        raise UsageError(f"monomial line needs 'a b c coeff', got {value!r}")
    a, b, c, coeff = (int(x) for x in parts)
    if min(a, b, c) < 0 or a + b + c != degree:
        raise UsageError(f"exponents {a} {b} {c} do not form a monomial of "
                         f"degree {degree}")
    return (a, b, c), coeff


def parse_surface_spec(text: str) -> SurfaceSpec:
    name = "surface"
    f6: dict = {}
    k = None
    external: dict = {}
    gram_rows = []
    conics: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise UsageError(f"expected 'key: value', got {raw!r}")
        key, value = (s.strip() for s in line.split(":", 1))
        try:
            if key == "name":
                name = value
            elif key == "f6":
                mono, coeff = _parse_monomial_line(value, 6)
                if mono in f6:
                    raise UsageError(f"duplicate monomial {mono} in f6")
                f6[mono] = coeff
            elif key == "k":
                k = int(value)
                if not 0 <= k <= H2_DIM or (H2_DIM - k) % 2:
                    raise UsageError(f"k = {k} must be even and between 0 "
                                     f"and {H2_DIM}")
            elif key == "external":
                d, n = (int(x) for x in value.split())
                if d < 1:
                    raise UsageError(f"count degree {d} is below 1")
                external[d] = n
            elif key == "gram":
                gram_rows.append(tuple(int(x) for x in value.split()))
            elif key.startswith("conic."):
                _, idx, fld = key.split(".")
                entry = conics.setdefault(int(idx), {"scale": 1, "q2": {},
                                                     "q3": {}, "q4": {}})
                if fld == "scale":
                    entry["scale"] = int(value)
                elif fld in ("q2", "q3", "q4"):
                    mono, coeff = _parse_monomial_line(value, int(fld[1]))
                    if mono in entry[fld]:
                        raise UsageError(
                            f"duplicate monomial {mono} in conic.{idx}.{fld}")
                    entry[fld][mono] = coeff
                else:
                    raise UsageError(f"unknown conic field {fld!r}")
            else:
                raise UsageError(f"unknown key {key!r}")
        except ValueError as exc:  # UsageError included
            raise UsageError(
                f"surface file line {raw.strip()!r}: {exc}") from None
    if not f6:
        raise UsageError("surface file has no f6 monomials")
    gram = tuple(gram_rows) if gram_rows else None
    if gram is not None and any(len(r) != len(gram) for r in gram):
        raise UsageError("gram matrix must be square")
    for i, j in ((i, j) for i in range(len(gram or ())) for j in range(i)):
        if gram[i][j] != gram[j][i]:
            raise UsageError(f"gram matrix is not symmetric: entries ({j + 1}, "
                             f"{i + 1}) and ({i + 1}, {j + 1}) are "
                             f"{gram[j][i]} and {gram[i][j]}")
    conic_list = [ConicCert(scale=e["scale"], q2=IntForm(e["q2"], 2),
                            q3=IntForm(e["q3"], 3), q4=IntForm(e["q4"], 4))
                  for _, e in sorted(conics.items())]
    return SurfaceSpec(name=name, f6=IntForm(f6, 6), k=k,
                       external_counts=external, conics=conic_list, gram=gram)


def serialize_surface_spec(spec: SurfaceSpec) -> str:
    out = [f"name: {spec.name}"]
    for (a, b, c) in sorted(spec.f6.coeffs):
        out.append(f"f6: {a} {b} {c} {spec.f6.coeffs[(a, b, c)]}")
    if spec.k is not None:
        out.append(f"k: {spec.k}")
    for d in sorted(spec.external_counts):
        out.append(f"external: {d} {spec.external_counts[d]}")
    if spec.gram is not None:
        for row in spec.gram:
            out.append("gram: " + " ".join(str(x) for x in row))
    for i, cert in enumerate(spec.conics, start=1):
        out.append(f"conic.{i}.scale: {cert.scale}")
        for fld in ("q2", "q3", "q4"):
            form = getattr(cert, fld)
            for (a, b, c) in sorted(form.coeffs):
                out.append(f"conic.{i}.{fld}: {a} {b} {c} {form.coeffs[(a, b, c)]}")
    return "\n".join(out) + "\n"


def load_surface_file(path: str) -> SurfaceSpec:
    try:
        with open(path) as fh:
            return parse_surface_spec(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read surface file: {exc}")


# ---------------------------------------------------------------------------
# report helpers


def _tritangent_dict(cert):
    return {
        "line": cert.line_str(),
        "line_field_degree": cert.line_field_degree,
        "split_field_degree": cert.split_field_degree,
        "unit": cert.unit.to_int(),
        "contacts": [
            {"point": [c.to_int() for c in pt], "multiplicity": m,
             "field_degree": pt[0].ctx.d}
            for pt, m in cert.contact_points],
        "decomposition": (
            None if cert.f3 is None else
            {"f3": cert.f3.serialize(), "f5": cert.f5.serialize()}),
    }


def _render_lines(obj, indent=0):
    pad = "  " * indent
    out = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                out.append(f"{pad}{key}:")
                out.extend(_render_lines(val, indent + 1))
            else:
                out.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                out.append(pad + "-")
                out.extend(_render_lines(val, indent + 1))
            else:
                out.append(f"{pad}- {val}")
    else:
        out.append(f"{pad}{obj}")
    return out


def emit_report(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    return "\n".join(_render_lines(report))


# ---------------------------------------------------------------------------
# stages: one helper per fact, shared by the stage commands and certify;
# each reaches its layer through this module's globals, so that a caller
# that replaces one (perfbench/spans.py does) sees every call


def _series_for(spec, p, dmax, args):
    try:
        cache = CacheStore(args.cache) if args.cache else None
    except CacheFileError as exc:
        raise UsageError(f"corrupt count cache {exc}") from None
    return count_series(spec.f6, p, dmax, cache, deep=args.deep,
                        workers=args.workers, external=spec.external_counts)


def _count_rows(series):
    return [{"d": r.d, "N": r.N, "trace": r.trace, "source": src}
            for r, src in zip(series.records, series.sources)]


def _zeta_data(spec, p, args):
    """k, the count series for d <= m, the surviving (sign, polynomial)
    pairs and the (sign, reason) pairs the traces allow but a later check
    rules out: a sign survives only if its polynomial lies on or above the
    Hodge polygon and predicts every external count above m.  Raises
    MathError when no sign survives."""
    k = 2 if spec.k is None else spec.k
    m = (H2_DIM - k) // 2
    series = _series_for(spec, p, m, args)
    beyond = [(d, n) for d, n in sorted(spec.external_counts.items())
              if d > series.dmax]
    survivors, dropped, miss = [], [], None
    for sign, P in determine_sign(series.traces(), q=p, degree=H2_DIM, k=k):
        if not newton_above_hodge(P):
            miss = miss or (f"the polynomial of sign {sign:+d} fails "
                            "newton_above_hodge: its Newton polygon dips "
                            "below the Hodge polygon")
            dropped.append((sign, "newton_above_hodge rules out"))
            continue
        for d, n in beyond:
            pred = predicted_count(P, d)
            if pred != n:
                miss = miss or f"char poly predicts N_{d} = {pred}, measured {n}"
                dropped.append((sign, f"the external count(s) above d = "
                                      f"{series.dmax} rule out"))
                break
        else:
            survivors.append((sign, P))
    if not survivors:
        raise MathError(miss or "no functional-equation sign is consistent "
                                "with the traces; counts or k are wrong")
    return k, series, survivors, dropped


def _tritangents(spec, p, line_degree, args):
    return find_tritangents(reduce_mod(spec.f6, field_create(p, 1)),
                            line_degree, deep=args.deep)


def _obstruction(spec, p, cert):
    """The second-order obstruction on a rational-split tritangent, from
    the decomposition its certificate holds."""
    rep = lifts_to_second_order(spec.f6, cert.line, p,
                                (cert.f3.lift(), cert.f5.lift()))
    return {
        "p": rep.p,
        "G": rep.G.serialize(),
        "g_bar": rep.g_bar.serialize(),
        "f3_bar": rep.f3_bar.serialize(),
        "f5_bar": rep.f5_bar.serialize(),
        "matrix": [list(r) for r in rep.matrix],
        "rhs": list(rep.rhs),
        "verdict": rep.verdict,
        "witness": None if rep.witness is None else
        [rep.witness[0].serialize(), rep.witness[1].serialize()],
    }


def _stage_count(spec, p, args):
    series = _series_for(spec, p, args.dmax or 3, args)
    return {"p": p, "fingerprint": series.records[0].fingerprint,
            "counts": _count_rows(series)}


def _stage_zeta(spec, p, args):
    k, series, survivors, _ = _zeta_data(spec, p, args)
    out = {"p": p, "k": k, "counts": _count_rows(series), "signs": []}
    for sign, P in survivors:
        rb = cyclotomic_part(P)
        out["signs"].append({
            "sign": sign,
            "char_poly": P.serialize(),
            "factor": ",".join(str(c) for c in P.r_coeffs),
            "rank_upper_bound": rb.cyclotomic_degree,
            "cyclotomic_multiplicities": [list(x) for x in rb.per_n],
            "bound_is_even": rb.is_even,
        })
    return out


def _stage_tritangent(spec, p, args):
    smooth = assert_good_reduction(spec.f6, p)
    certs = _tritangents(spec, p, args.line_degree, args)
    return {"p": p, "smooth": smooth.verdict,
            "search_field_degree": args.line_degree,
            "tritangents": [_tritangent_dict(c) for c in certs]}


def _stage_obstruct(spec, p, args):
    assert_good_reduction(spec.f6, p)
    reports = []
    for cert in _tritangents(spec, p, 1, args):
        entry = {"line": cert.line_str(),
                 "split_field_degree": cert.split_field_degree}
        if cert.split_field_degree != 1:
            entry["note"] = ("splits are only rational over the quadratic "
                             "extension; obstruction not computed")
        else:
            entry["obstruction"] = _obstruction(spec, p, cert)
        reports.append(entry)
    return {"p": p, "tritangents": reports}


def _stage_lattice(spec, p, args):
    out = {"conics": [], "gram": None}
    for i, cert in enumerate(spec.conics, start=1):
        out["conics"].append({
            "index": i,
            "scale": cert.scale,
            "identity_verified": verify_conic_identity(cert, spec.f6),
        })
    if spec.gram is not None:
        rank, disc = gram_rank_disc(spec.gram)
        out["gram"] = {"matrix": [list(r) for r in spec.gram],
                       "rank": rank, "disc": disc}
    return out


# ---------------------------------------------------------------------------
# certification


def cmd_certify(spec: SurfaceSpec, p: int, args) -> dict:
    """Single-prime certification report with an explicit reasoning chain."""
    chain = []
    report = {"p": p}

    smooth = assert_good_reduction(spec.f6, p)
    chain.append(f"smoothness_check: the degree-14 Macaulay matrix of f6 and "
                 f"its partials has full rank 120 mod {p}, so the branch "
                 "sextic is smooth and the double cover has good reduction "
                 "(p odd)")
    report["smooth"] = smooth.verdict

    k, series, survivors, dropped = _zeta_data(spec, p, args)
    report["k"] = k
    report["counts"] = _count_rows(series)
    chain.append(f"count_series: d = 1..{series.dmax} with sources "
                 f"{{{', '.join(sorted(set(series.sources)))}}}; Weil bound "
                 "|t| <= 22q holds for every d")
    chain.append(f"newton_above_hodge: {p}^(i-1) divides e_i for 2 <= i "
                 "<= 21 in the polynomial of every sign kept (Mazur: its "
                 "Newton polygon lies on or above the K3 Hodge polygon)")

    if len(survivors) > 1:
        report["sign"] = "ambiguous"
        report["verdict"] = "evidence-only"
        report["note"] = ("both signs of the functional equation survive; "
                          "more traces are needed, no certificate emitted")
        chain.append("determine_sign: ambiguous (+1 and -1 both consistent)")
        report["chain"] = chain
        return report
    sign, P = survivors[0]
    report["sign"] = sign
    report["char_poly"] = P.serialize()
    if dropped:
        other, why = dropped[0]
        chain.append(f"determine_sign: sign {sign:+d}; the traces also allow "
                     f"{other:+d}, which {why}")
    else:
        chain.append(f"determine_sign: unique consistent sign {sign:+d}")

    beyond = [str(d) for d in sorted(spec.external_counts) if d > series.dmax]
    if beyond:
        chain.append(f"predicted_count: the polynomial, built from d <= "
                     f"{series.dmax}, also reproduces the external count(s) "
                     f"at d = {', '.join(beyond)}")

    rb = cyclotomic_part(P)
    upper = rb.cyclotomic_degree
    report["rank_upper_bound_reduction"] = upper
    report["cyclotomic_multiplicities"] = [list(x) for x in rb.per_n]
    report["bound_is_even"] = rb.is_even
    chain.append(f"cyclotomic_part: rk Pic of the reduction <= {upper} "
                 f"(parity note: bound is {'even' if rb.is_even else 'odd'})")

    certs = _tritangents(spec, p, args.line_degree, args)
    report["tritangents"] = [_tritangent_dict(c) for c in certs]
    rational = [c for c in certs
                if c.line_field_degree == 1 and c.split_field_degree == 1]
    chain.append(f"find_tritangents: {len(certs)} tritangent line(s) over "
                 f"F_{p}^e, e <= {args.line_degree}; "
                 f"{len(rational)} with rational splits")

    blocked = False
    obstruction_reports = []
    for cert in rational:
        obstruction = _obstruction(spec, p, cert)
        obstruction_reports.append({"line": cert.line_str(),
                                    "obstruction": obstruction})
        if obstruction["verdict"] != "vanishes":
            blocked = True
            chain.append(
                f"lifts_to_second_order: obstruction on {cert.line_str()} is "
                "nonvanishing (7x6 system unsolvable); the split class does "
                "not lift to the second-order thickening")
    report["obstructions"] = obstruction_reports

    lower = 1
    chain.append("lower bound 1: the polarization class")
    lattice = _stage_lattice(spec, p, args)
    for conic in lattice["conics"]:
        if not conic["identity_verified"]:
            raise MathError(f"conic certificate {conic['index']} fails its "
                            "exact integer identity")
    if spec.conics:
        chain.append(f"verify_conic_identity: {len(spec.conics)} six-fold "
                     "tangent conic identity(ies) verified exactly over Z")
    if lattice["gram"] is not None:
        rank = report["gram_rank"] = lattice["gram"]["rank"]
        report["gram_disc"] = lattice["gram"]["disc"]
        if spec.conics:
            lower = max(lower, rank)
            chain.append(f"gram_rank_disc: intersection matrix of the known "
                         f"classes has rank {rank}; rk Pic >= {rank}")

    if blocked:
        upper_geo = upper - 1
        chain.append(
            "torsion-free specialization: equality of ranks would force the "
            "blocked class to lift; hence rk Pic over the closure of Q is "
            f"strictly below the reduction rank, so <= {upper_geo}")
    else:
        upper_geo = upper
        chain.append("no obstruction blocks a lift; geometric upper bound "
                     f"stays {upper}")
    report["rank_lower_bound"] = lower
    report["rank_upper_bound"] = upper_geo

    if not certs:
        chain.append(
            f"no tritangent over F_{p}^e, e <= {args.line_degree}: evidence "
            "against a split-class generator, not a proof (the search does "
            "not cover the algebraic closure)")

    if lower > upper_geo:
        raise MathError(f"bounds crossed: lower {lower} > upper {upper_geo}; "
                        "input data is inconsistent")
    if lower == upper_geo:
        report["verdict"] = f"rank = {lower} proved"
    else:
        report["verdict"] = f"bounded: {lower} <= rank <= {upper_geo}"
    report["chain"] = chain
    return report


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_OPTIONS = {
    "dmax": dict(type=int, default=None,
                 help="largest extension degree to count"),
    "cache": dict(default=None, help="count cache file"),
    "deep": dict(action="store_true",
                 help="allow counts and tritangent searches beyond the "
                      "desk-scale budget"),
    "workers": dict(type=int, default=1,
                    help="processes that share a large count, at most one "
                         "per usable CPU"),
    "line-degree": dict(type=int, default=1,
                        help="search tritangents over F_p^e up to this e"),
}
# each command: the function that builds its report (run adds the stage,
# surface and timing_ms fields), and the options it reads besides --spec,
# --prime and --json; any other option is a usage error
_COMMANDS = {
    "count": (_stage_count, ("dmax", "cache", "deep", "workers")),
    "zeta": (_stage_zeta, ("cache", "deep", "workers")),
    "tritangent": (_stage_tritangent, ("deep", "line-degree")),
    "obstruct": (_stage_obstruct, ("deep",)),
    "lattice": (_stage_lattice, ()),
    "certify": (cmd_certify, ("cache", "deep", "workers", "line-degree")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not
    change it)."""
    parser = _Parser(prog="k3cert",
                     description="Picard rank bounds and certificates for "
                                 "degree-2 K3 surfaces at one odd prime")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--spec", required=True, help="surface file")
        sp.add_argument("--prime", "-p", type=int, required=True)
        sp.add_argument("--json", action="store_true", dest="as_json")
        for option in options:
            sp.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        p = args.prime
        if p == 2:
            raise UsageError("p = 2 is excluded: the method needs an odd "
                             "prime of good reduction")
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        if p >= PRIME_BOUND:
            raise UsageError(f"p = {p} is too large: k3cert takes p < 2^31")
        for option in ("line-degree", "dmax", "workers"):
            value = getattr(args, option.replace("-", "_"), None)
            if value is not None and value < 1:
                raise UsageError(f"--{option} must be at least 1, got {value}")
        spec = load_surface_file(args.spec)
        started = time.perf_counter()
        report = {"stage": args.command, "surface": spec.name,
                  **_COMMANDS[args.command][0](spec, p, args)}
        report["timing_ms"] = round((time.perf_counter() - started) * 1e3, 3)
        print(emit_report(report, args.as_json))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MathError as exc:
        print(f"mathematical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
