"""The standing parity corpus: seeded sextics run through the stage
commands, with their outputs pinned by one digest.

The families, at p = 3, 5 and 7:
- dense sextics (every coefficient in [-9, 9]) and sparse ones (each
  monomial kept with probability 0.5);
- singular sextics, one of each kind of singular_families: a node, g^2 h,
  a conic times a quartic, the square of a cubic, six lines and the cube
  of a conic;
- f6 = s q3^2 + q2 q4, smooth mod p with a tritangent over F_p with
  rational splits, with its conic certificate in the surface file, and s
  a square ("split") or a non-square ("split non-square s") mod p.

Each sextic's surface file goes through cli.run for `tritangent
--line-degree 2`, `obstruct`, `lattice` and `count --dmax 2`; the digest
covers the exit code, the text report without its timing_ms line and
the error output of every run, so it pins outputs, not the types the
program computes with.  Every sextic has its own seed, so the slice that
tier 1 runs is a prefix of each family of the whole corpus.

    PYTHONPATH=src python tests/test_parity_corpus.py --full

runs the whole corpus, prints the number of sextics and of exit codes per
family and checks FULL_DIGEST.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from k3cert import cli
from k3cert.ffield import field_create
from k3cert.forms import IntForm, reduce_mod
from k3cert.geom import find_tritangents, smoothness_check

PRIMES = (3, 5, 7)
COMMANDS = (("tritangent", "--line-degree", "2"), ("obstruct",),
            ("lattice",), ("count", "--dmax", "2"))
SINGULAR_KINDS = ("node", "g^2 h", "conic*quartic", "cubic^2", "six lines",
                  "conic^3")
FAMILIES = ("dense", "sparse", "singular", "split", "split non-square s")
# sextics per family and prime: the tier-1 slice and the whole corpus (a
# singular entry is one sextic of each kind)
SLICE = {"dense": 12, "sparse": 12, "singular": 3, "split": 3,
         "split non-square s": 3}
FULL = {"dense": 200, "sparse": 200, "singular": 60, "split": 40,
        "split non-square s": 40}

SLICE_DIGEST = (
    "0730424408b44c4cc66e1dac0c3ea77a57b1aa60921bca7355f44c1048579787")
FULL_DIGEST = (
    "48575daa8185651664bf9ebd2ecad200f4ca7487343b283eebc44b8311135451")


def _monomials(degree):
    return [(a, b, degree - a - b) for a in range(degree + 1)
            for b in range(degree + 1 - a)]


def _lines_product(lines):
    f = IntForm({(0, 0, 0): 1}, 0)
    for a, b, c in lines:
        f = f * IntForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}, 1)
    return f


def singular_families(p, rng):
    """Seeded sextics singular mod p, one per kind of SINGULAR_KINDS, with
    integer coefficients: a node at a random point (on x = 0 one time in
    four), g^2 h, a conic times a quartic, the square of a cubic, six lines
    and the cube of a conic."""

    def form(degree):
        return IntForm({m: rng.randrange(p) for m in _monomials(degree)},
                       degree)

    def lin(a, b, c):
        return IntForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}, 1)

    v, w = rng.randrange(p), rng.randrange(p)
    Y, Z = ((lin(1, 0, 0), lin(0, -w, 1)) if rng.random() < 0.25
            else (lin(-v, 1, 0), lin(-w, 0, 1)))
    g, c = form(2), form(3)
    lines = [(1, rng.randrange(p), rng.randrange(p)) for _ in range(6)]
    return list(zip(SINGULAR_KINDS, (
        Y * Y * form(4) + Y * Z * form(4) + Z * Z * form(4), g * g * form(2),
        g * form(4), c * c, _lines_product(lines), g * g * g)))


def _random_form(rng, degree, bound, density=1.0):
    return IntForm({m: rng.randint(-bound, bound) for m in _monomials(degree)
                    if rng.random() < density}, degree)


def _split_sextic(p, rng, square):
    """f6 = s q3^2 + q2 q4, smooth mod p with a tritangent over F_p with
    rational splits, and its conic certificate (s, q2, q3, q4), with s a
    square mod p or not: the first such random f6 from the seed."""
    ctx = field_create(p, 1)
    s = rng.choice([s for s in range(1, p)
                    if (pow(s, (p - 1) // 2, p) == 1) == square])
    while True:
        q2, q3, q4 = (_random_form(rng, d, 3) for d in (2, 3, 4))
        f6 = (q3 * q3).scale(s) + q2 * q4
        f = reduce_mod(f6, ctx)
        if (not f.is_zero() and smoothness_check(f).verdict == "smooth"
                and any(c.split_field_degree == 1
                        for c in find_tritangents(f, 1))):
            return f6, (s, q2, q3, q4)


def sextic(family, p, index):
    """[(label, surface file text)] for one seed of a family: one entry,
    or one per kind for the singular family."""
    rng = random.Random(f"{family}/{p}/{index}")
    conic = None
    if family == "dense":
        cases = [(family, _random_form(rng, 6, 9))]
    elif family == "sparse":
        cases = [(family, _random_form(rng, 6, 9, density=0.5))]
    elif family == "singular":
        cases = singular_families(p, rng)
    else:
        f6, conic = _split_sextic(p, rng, family == "split")
        cases = [(family, f6)]
    out = []
    for label, f6 in cases:
        text = [f"name: {label} p{p} #{index}"]
        text += [f"f6: {a} {b} {c} {v}" for (a, b, c), v in
                 sorted(f6.coeffs.items())]
        if conic is not None:
            s, *forms = conic
            text.append(f"conic.1.scale: {s}")
            for name, form in zip(("q2", "q3", "q4"), forms):
                text += [f"conic.1.{name}: {a} {b} {c} {v}" for (a, b, c), v
                         in sorted(form.coeffs.items())]
        out.append((label, "\n".join(text) + "\n"))
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    report = [line for line in out.getvalue().splitlines()
              if not line.startswith("timing_ms: ")]
    return [code, report, err.getvalue()]


def corpus_outputs(sizes, directory):
    """[(label, p, index, [[rc, report lines, stderr] per command])] for
    the first sizes[family] seeds of each family at each prime."""
    outputs = []
    for family in FAMILIES:
        for p in PRIMES:
            for index in range(sizes[family]):
                for label, text in sextic(family, p, index):
                    path = Path(directory) / "surface.txt"
                    path.write_text(text)
                    outputs.append((label, p, index, [
                        _run([*command, "--spec", str(path), "-p", str(p)])
                        for command in COMMANDS]))
    return outputs


def digest(outputs):
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def test_parity_corpus_slice(tmp_path):
    outputs = corpus_outputs(SLICE, tmp_path)
    codes = [run[0] for *_, runs in outputs for run in runs]
    assert len(outputs) == 3 * (sum(SLICE.values()) + 5 * SLICE["singular"])
    assert codes.count(0) >= len(codes) // 2 and 2 in codes
    assert set(codes) <= {0, 2}
    assert digest(outputs) == SLICE_DIGEST


def main(argv):
    if argv != ["--full"]:
        print("usage: PYTHONPATH=src python tests/test_parity_corpus.py "
              "--full", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as directory:
        outputs = corpus_outputs(FULL, directory)
    per_label = {}
    for label, _, _, runs in outputs:
        row = per_label.setdefault(label, [0] + [{} for _ in COMMANDS])
        row[0] += 1
        for codes, (code, _, _) in zip(row[1:], runs):
            codes[code] = codes.get(code, 0) + 1
    for label, (n, *codes) in per_label.items():
        print(f"{label}: {n} sextics; exit codes " + ", ".join(
            f"{command[0]} " + " ".join(f"{c}:{k}" for c, k in
                                        sorted(counts.items()))
            for command, counts in zip(COMMANDS, codes)))
    got = digest(outputs)
    print(f"{len(outputs)} sextics, digest {got}")
    if got != FULL_DIGEST:
        print(f"digest differs from FULL_DIGEST {FULL_DIGEST}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
