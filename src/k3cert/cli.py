"""Command-line pipeline: surface files, stage commands, certification.

Surface files are plain text, one `key: value` per line with repeated
keys accumulating monomials:

    name: my-surface
    # coefficient of x^a y^b z^c as "a b c coeff"
    f6: 6 0 0 4
    f6: 5 1 0 2
    external: 10 3486675052   # published deep count (optional, repeatable)
    conic.1.scale: 1          # conic certificates (optional, grouped)
    conic.1.q2: 2 0 0 2
    ...

Verdicts rest exclusively on exact integer checks.  The certification
rule set mirrors two patterns: a rank upper bound U from the cyclotomic
part of the Frobenius polynomial, a lower bound from the intersection
matrix of the classes certify exhibits itself (the hyperplane class H
and the components of the verified conics; with the components of the
rational-split tritangents it also fixes k, the known multiplicity of
t = p in the polynomial), and a nonvanishing second-order obstruction on
a rational-split tritangent, which forces the geometric rank strictly
below the rank of the reduction and hence caps it at U - 1.  When bounds
meet, the rank is proved; otherwise the report carries bounds plus
explicitly-labelled evidence.  The file states facts only: k and the
intersection matrix are derived, and the lines of the retired claims
`k:` and `gram:` are skipped unread.

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
from .errors import CacheFileError, MathError, WeilBoundError
from .ffield import field_create, is_prime
from .forms import IntForm, reduce_mod
from .geom import assert_good_reduction, find_tritangents
from .lattice import gram_rank_disc, row_basis, square_class_equal
from .obstruct import (ConicCert, SplitCurve, binary_str, class_matrix,
                       lifts_to_second_order, verify_conic_identity)
from .zeta import (H2_DIM, artin_tate_value, cyclotomic_part, determine_sign,
                   newton_above_hodge, predicted_count)


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
    external_counts: dict = field(default_factory=dict)
    conics: list = field(default_factory=list)


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
    external: dict = {}
    conics: dict = {}
    given: dict = {}  # single-valued entries read so far, with their value

    def once(entry, value):  # a repeat must restate the value
        if given.setdefault(entry, value) != value:
            raise UsageError(f"{entry} is given twice, as {given[entry]!r} "
                             f"and {value!r}")
        return value

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise UsageError(f"expected 'key: value', got {raw!r}")
        key, value = (s.strip() for s in line.split(":", 1))
        if key in ("k", "gram"):  # retired claims, now derived: skipped
            continue
        try:
            if key == "name":
                name = once(key, value)
            elif key == "f6":
                mono, coeff = _parse_monomial_line(value, 6)
                if mono in f6:
                    raise UsageError(f"duplicate monomial {mono} in f6")
                f6[mono] = coeff
            elif key == "external":
                d, n = (int(x) for x in value.split())
                if d < 1:
                    raise UsageError(f"count degree {d} is below 1")
                external[d] = once(f"external count {d}", n)
            elif key.startswith("conic."):
                _, idx, fld = key.split(".")
                entry = conics.setdefault(int(idx), {"scale": 1, "q2": {},
                                                     "q3": {}, "q4": {}})
                if fld == "scale":
                    entry["scale"] = once(key, int(value))
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
    conic_list = [ConicCert(scale=e["scale"], q2=IntForm(e["q2"], 2),
                            q3=IntForm(e["q3"], 3), q4=IntForm(e["q4"], 4))
                  for _, e in sorted(conics.items())]
    return SurfaceSpec(name=name, f6=IntForm(f6, 6),
                       external_counts=external, conics=conic_list)


def load_surface_file(path: str) -> SurfaceSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read surface file {path}: {exc}") from None
    return parse_surface_spec(text)


# ---------------------------------------------------------------------------
# report helpers


def _tritangent_dict(cert):
    return {
        "line": cert.line_str(),
        "line_field_degree": cert.line_field_degree,
        "split_field_degree": cert.split_field_degree,
        "unit": cert.unit,
        "contacts": [
            {"point": list(pt), "multiplicity": m, "field_degree": field.d}
            for field, pt, m in cert.contact_points()],
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
        return count_series(spec.f6, p, dmax, cache, deep=args.deep,
                            workers=args.workers,
                            external=spec.external_counts)
    except CacheFileError as exc:  # unreadable, unwritable or corrupt
        raise UsageError(str(exc)) from None
    except WeilBoundError:
        # the Weil bound holds only for good reduction: a singular sextic
        # is reported as such, not as a wrong count
        assert_good_reduction(spec.f6, p)
        raise


def _count_rows(series):
    return [{"d": r.d, "N": r.N, "trace": r.trace, "source": src}
            for r, src in zip(series.records, series.sources)]


def _zeta_data(spec, p, args, lattice):
    """k, the count series for d <= m, the surviving (sign, polynomial)
    pairs and the (sign, reason) pairs the traces allow but a later check
    rules out: a sign survives only if its polynomial lies on or above the
    Hodge polygon and predicts every external count above m.  k is the
    largest even number at most the rank r of the F_p-rational classes of
    the class lattice (their r eigenvalues t = q are known).  Raises
    MathError when no sign survives."""
    r = lattice["rational_rank"]
    k = r - r % 2
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


def _tritangents(spec, p, line_degree, deep):
    return find_tritangents(reduce_mod(spec.f6, field_create(p, 1)),
                            line_degree, deep=deep)


def _split_tritangents(certs):
    """The tritangents over F_p with rational splits among `certs`, each
    as its split curve D[line], by its line's text."""
    return {c.line_str(): SplitCurve.from_tritangent(f"D[{c.line_str()}]", c)
            for c in certs
            if c.line_field_degree == 1 and c.split_field_degree == 1}


def _class_lattice(spec, p, tritangents):
    """The classes at p from verified objects only: H, the components C+-
    of each conic certificate (its identity checked over Z) and D+- of
    each rational-split tritangent in `tritangents` (_split_tritangents),
    with their intersection matrix (obstruct.class_matrix); the rank of
    the classes over the closure of Q (H and the C+-, H = (C+ + C-)/2);
    and a basis of the F_p-rational classes (H, the D+- and the C+- of a
    conic whose scale is a square mod p) with its determinant."""
    for i, cert in enumerate(spec.conics, start=1):
        if not verify_conic_identity(cert, spec.f6):
            raise MathError(f"conic certificate {i} fails its exact integer "
                            "identity")
    curves = [SplitCurve.from_conic(f"C{i}", cert, p)
              for i, cert in enumerate(spec.conics, start=1)]
    curves += tritangents.values()
    G = class_matrix(curves)
    labels = ["H"] + [c.name + sign for c in curves for sign in "+-"]
    closure = range(1 + 2 * len(spec.conics))
    rational = [0] + [a for i, c in enumerate(curves) if c.root[1] == 1
                      for a in (1 + 2 * i, 2 + 2 * i)]

    def block(idx):
        return [[G[i][j] for j in idx] for i in idx]

    basis = [rational[i] for i in row_basis(block(rational))]
    return {"classes": labels, "matrix": G,
            "rank_over_closure": gram_rank_disc(block(closure))[0],
            "rational_classes": [labels[i] for i in rational],
            "rational_rank": len(basis),
            "rational_basis": [labels[i] for i in basis],
            "rational_disc": gram_rank_disc(block(basis))[1]}


def _obstruction(f6, curve):
    """The second-order obstruction on a split curve."""
    rep = lifts_to_second_order(f6, curve)
    return {
        "p": rep.p,
        "G": rep.G.serialize(),
        "g_bar": binary_str(rep.g_bar),
        "f3_bar": binary_str(rep.f3_bar),
        "f5_bar": binary_str(rep.f5_bar),
        "matrix": [list(r) for r in rep.matrix],
        "rhs": list(rep.rhs),
        "verdict": rep.verdict,
        "witness": None if rep.witness is None else
        [binary_str(w) for w in rep.witness],
    }


def _stage_count(spec, p, args):
    series = _series_for(spec, p, args.dmax or 3, args)
    return {"p": p, "fingerprint": series.records[0].fingerprint,
            "counts": _count_rows(series)}


def _stage_zeta(spec, p, args):
    assert_good_reduction(spec.f6, p)
    lattice = _class_lattice(spec, p, _split_tritangents(
        _tritangents(spec, p, 1, args.deep)))
    k, series, survivors, _ = _zeta_data(spec, p, args, lattice)
    out = {"p": p, "k": k, "rational_basis": lattice["rational_basis"],
           "counts": _count_rows(series), "signs": []}
    for sign, P in survivors:
        rb = cyclotomic_part(P)
        out["signs"].append({
            "sign": sign,
            "char_poly": P.serialize(),
            "factor": ",".join(str(c) for c in P.r_coeffs),
            "rank_upper_bound": rb.cyclotomic_degree,
            "cyclotomic_multiplicities": [list(x) for x in rb.per_n],
        })
    return out


def _stage_tritangent(spec, p, args):
    smooth = assert_good_reduction(spec.f6, p)
    certs = _tritangents(spec, p, args.line_degree, args.deep)
    return {"p": p, "smooth": smooth.verdict,
            "search_field_degree": args.line_degree,
            "tritangents": [_tritangent_dict(c) for c in certs]}


def _stage_obstruct(spec, p, args):
    assert_good_reduction(spec.f6, p)
    reports = []
    certs = _tritangents(spec, p, 1, args.deep)
    split = _split_tritangents(certs)
    for cert in certs:
        line = cert.line_str()
        entry = {"line": line, "split_field_degree": cert.split_field_degree}
        if line in split:
            entry["obstruction"] = _obstruction(spec.f6, split[line])
        else:
            entry["note"] = ("splits are only rational over the quadratic "
                             "extension; obstruction not computed")
        reports.append(entry)
    return {"p": p, "tritangents": reports}


def _stage_lattice(spec, p, args):
    assert_good_reduction(spec.f6, p)
    return {"p": p, **_class_lattice(spec, p, _split_tritangents(
        _tritangents(spec, p, 1, args.deep)))}


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

    certs = _tritangents(spec, p, args.line_degree, args.deep)
    report["tritangents"] = [_tritangent_dict(c) for c in certs]
    split = _split_tritangents(certs)
    chain.append(f"find_tritangents: {len(certs)} tritangent line(s) over "
                 f"F_{p}^e, e <= {args.line_degree}; "
                 f"{len(split)} with rational splits")
    lattice = report["lattice"] = _class_lattice(spec, p, split)
    if spec.conics:
        chain.append(f"verify_conic_identity: {len(spec.conics)} six-fold "
                     "tangent conic identity(ies) verified exactly over Z")
    chain.append(f"class_matrix: intersection matrix of "
                 f"{', '.join(lattice['classes'])} at p = {p}, a "
                 "split_pairing for each pair of curves")
    basis = ", ".join(lattice["rational_basis"])
    r = lattice["rational_rank"]

    k, series, survivors, dropped = _zeta_data(spec, p, args, lattice)
    report["k"] = k
    report["counts"] = _count_rows(series)
    chain.append(f"gram_rank_disc: the F_{p}-rational classes have rank {r} "
                 f"(basis {basis}, det {lattice['rational_disc']}), so P has "
                 f"t = {p} at least {r} times; k = {k}")
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
    chain.append(f"cyclotomic_part: rk Pic of the reduction <= {upper}")

    if dict(rb.per_n).get(1) == r:
        num, den = artin_tate_value(P, r)
        value = report["artin_tate"] = str(num) if den == 1 else f"{num}/{den}"
        disc = abs(lattice["rational_disc"])
        if not square_class_equal(disc, num * den):
            raise MathError(
                f"artin_tate: t = {p} has multiplicity {r} in P, but |det| = "
                f"{disc} of the F_{p}-rational classes {basis} and q R1(q) / "
                f"q^(22 - {r}) = {value} lie in different square classes")
        chain.append(f"artin_tate: t = {p} has multiplicity {r} in P, the "
                     f"rank of the F_{p}-rational classes, and |det| = {disc} "
                     f"of {basis} lies in the square class of q R1(q) / "
                     f"q^(22 - {r}) = {value} = |Br| |disc NS|: the classes "
                     f"have finite index in NS of the reduction")

    blocked = False
    obstruction_reports = []
    for line, curve in split.items():
        obstruction = _obstruction(spec.f6, curve)
        obstruction_reports.append({"line": line,
                                    "obstruction": obstruction})
        if obstruction["verdict"] != "vanishes":
            blocked = True
            rows = obstruction["matrix"]
            chain.append(
                f"lifts_to_second_order: obstruction on {line} is "
                f"nonvanishing ({len(rows)}x{len(rows[0])} system "
                "unsolvable); the split class does not lift to the "
                "second-order thickening")
    report["obstructions"] = obstruction_reports

    lower = lattice["rank_over_closure"]
    closure = lattice["classes"][:1 + 2 * len(spec.conics)]
    chain.append(f"gram_rank_disc: the classes over the closure of Q "
                 f"({', '.join(closure)}) have rank {lower}; rk Pic >= "
                 f"{lower}")

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
    "lattice": (_stage_lattice, ("deep",)),
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
