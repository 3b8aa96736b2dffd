"""Command-line front door wiring the library into reproducible reports.

Every command emits one JSON document on stdout (CSV for sweep) with floats
formatted to 15 significant digits, so identical invocations are
byte-identical. Domain errors exit 2, argument errors 64, schema violations
65, numeric failures 70; each prints a one-line JSON error on stderr.

numpy loads only with the numeric layers (`bisection`, `matrices` and the
enumeration engine under `cuts`). A command imports them after it has read
its input, so `gen`, `sweep`, the closed forms and the usage and schema
refusals run without numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from . import charpoly, cuts, graph
from .errors import DomainError, NumericError, SchemaError, SizeError, SpecLabError
from .graph import MatrixKind

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_SCHEMA = 65
EXIT_NUMERIC = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it reads -1e-3 as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _g15(x: float) -> str:
    """x to 15 significant digits, for stable, locale-free output."""
    return format(float(x), ".15g")


def _fmt(x: float) -> float:
    return float(_g15(x))


def _fraction_parts(value: Fraction) -> tuple[int, int]:
    """(numerator, denominator) for JSON or CSV output; SizeError when either
    has more digits than the interpreter turns into text."""
    try:
        str(value.numerator), str(value.denominator)
    except ValueError:
        raise SizeError(f"exact value has more than {sys.get_int_max_str_digits()} digits "
                        "in its numerator or denominator") from None
    return value.numerator, value.denominator


def _rat(value: Fraction) -> dict:
    num, den = _fraction_parts(value)
    return {"num": num, "den": den, "float": _fmt(float(value))}


def _sweep_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "k", "branch", "value_num", "value_den", "value_float"])
    writer.writerows([r.n, r.k, r.branch, *_fraction_parts(r.value), _g15(r.value)] for r in rows)
    return buf.getvalue()


def _sweep_gnuplot(rows) -> str:
    """Whitespace-separated dump with a comment header, plottable directly."""
    lines = [f"{r.n} {r.k} {_g15(r.value)} {r.branch}\n" for r in rows]
    return "# n k value branch\n" + "".join(lines)


def _vertices_1based(subset) -> list[int]:
    return [v + 1 for v in subset.vertices()] if subset is not None else []


def _family_spec(args) -> graph.FamilySpec:
    fam = args.family.replace("-", "_")
    if fam not in graph.FAMILIES:
        raise DomainError(f"unknown family {args.family!r}")
    return graph.FamilySpec(fam, n=args.n, k=args.k, m=args.m, depth=args.depth)


def _input_spec(args, closed_form: str = "") -> graph.FamilySpec | None:
    """The --family instance, or None for a --graph input, which a closed form
    (named by its flag) refuses before the file is opened."""
    if (args.graph is None) == (args.family is None):
        raise _UsageError("give exactly one input: --graph PATH or --family NAME")
    if args.graph is not None and closed_form:
        raise _UsageError(f"{closed_form} needs a --family input")
    return _family_spec(args) if args.graph is None else None


def _load_input(args) -> graph.Graph:
    """The input graph: the --graph file, or the --family instance generated."""
    spec = _input_spec(args)
    return graph.read_json(args.graph) if spec is None else graph.generate(spec)


def _add_input_flags(p: argparse.ArgumentParser, family_only: bool = False):
    if not family_only:
        p.add_argument("--graph", help="path to a graph JSON document")
    p.add_argument("--family", required=family_only, help="graph family name")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--depth", type=int)


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"range must be LO:HI, got {text!r}")
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _emit(doc, out, stdout) -> None:
    text = json.dumps(doc) if not isinstance(doc, str) else doc
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out file: {exc}") from exc
    stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="speclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance")
    _add_input_flags(p, family_only=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = sub.add_parser("spectrum", help="eigenvalues of a graph matrix")
    _add_input_flags(p)
    p.add_argument("--kind", default="normalized")
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--vectors", action="store_true")

    p = sub.add_parser("mcut", help="exact minimum normalized cut")
    _add_input_flags(p)
    p.add_argument("--method", choices=["brute", "formula", "pruned"], default="brute")
    p.add_argument("--seed", help="comma-separated 1-based vertices for --method pruned")

    p = sub.add_parser("lcut", help="spectral bisection cut")
    _add_input_flags(p)

    p = sub.add_parser("compare", help="minimum cut vs spectral cut")
    _add_input_flags(p)

    p = sub.add_parser("charpoly", help="characteristic polynomial evaluation")
    p.add_argument("--which", choices=["pnk", "qnk", "product"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=float)
    p.add_argument("--roots", action="store_true")

    p = sub.add_parser("sweep", help="closed-form minima over a parameter grid")
    p.add_argument("--family", required=True)
    p.add_argument("--n-range", required=True)
    p.add_argument("--k-range", required=True)
    p.add_argument("--format", choices=["csv", "gnuplot"], default="csv")

    p = sub.add_parser("bounds", help="expansion constants and eigenvalue bounds")
    _add_input_flags(p)

    p = sub.add_parser("counterexample", help="ladder counterexample verdicts")
    p.add_argument("--k-range", required=True)
    for p in sub.choices.values():  # every command can also write its document to a file
        p.add_argument("--out")
    return parser


def _cmd_gen(args):
    g = graph.generate(_family_spec(args))
    return graph.to_dot(g) if args.format == "dot" else graph.to_json_dict(g)


def _cmd_spectrum(args):
    kind = MatrixKind.parse(args.kind)
    instance = _input_spec(args, "--closed-form") if args.closed_form else _load_input(args)
    from . import matrices
    if args.closed_form:
        sp, source = matrices.closed_form_spectrum(instance, kind), instance.label()
        if args.vectors and sp.eigenvectors is None:
            raise DomainError(f"no closed-form eigenvectors for family {instance.family!r}")
    else:
        sp, source = matrices.eig_sym(matrices.build_matrix(instance, kind)), instance.name
    doc = {"kind": kind.value, "source": source, "closed_form": args.closed_form,
           "eigenvalues": [_fmt(v) for v in sp.eigenvalues]}
    if not args.closed_form:
        doc["residual"] = _fmt(sp.residual)
    if args.vectors:
        doc["vectors"] = [[_fmt(x) for x in sp.eigenvectors[:, j]]
                          for j in range(sp.eigenvalues.shape[0])]
    return doc


def _cmd_mcut(args):
    if args.seed is not None and args.method != "pruned":
        raise _UsageError("--seed needs --method pruned")
    if args.method == "formula":
        spec = _input_spec(args, "--method formula")
        report = cuts.min_ncut_formula(spec)
    elif args.method == "pruned":
        g = _load_input(args)
        if not args.seed:
            raise _UsageError("--method pruned needs --seed")
        try:
            seed = [int(tok) for tok in args.seed.split(",")]
        except ValueError:
            raise _UsageError(f"--seed takes comma-separated vertex numbers, got {args.seed!r}")
        for v in seed:
            if not 1 <= v <= g.n:
                raise DomainError(f"--seed vertex {v} is not in 1..{g.n}")
        report = cuts.min_ncut_pruned(g, graph.vertex_subset(g, [v - 1 for v in seed]))
    else:
        report = cuts.min_ncut_brute(_load_input(args))
    return {"value": _rat(report.value), "cut_weight": report.cut_weight,
            "method": report.method, "branch": report.branch,
            "witness": _vertices_1based(report.witness),
            "family": spec.label() if args.method == "formula" else None}


def _cmd_lcut(args):
    g = _load_input(args)
    from . import bisection
    report = bisection.spectral_cut(g)
    # a 2-vertex graph has no third eigenvalue, hence no finite gap
    gap = _fmt(report.gap) if math.isfinite(report.gap) else None
    # a spectral cut exists only when lambda2 is simple
    doc = {"lambda2": _fmt(report.lambda2), "simple": True,
           "gap": gap, "parity": report.parity,
           "lcut": _rat(report.value),
           "positive_side": _vertices_1based(report.positive_side),
           "zero_count": report.zero_count}
    if report.alt_value is not None:
        doc["alt_orientation_lcut"] = _rat(report.alt_value)
    return doc


def _cmd_compare(args):
    g = _load_input(args)
    from . import bisection
    mcut = cuts.min_ncut(g)
    lcut = bisection.spectral_cut(g)
    return {"mcut": _rat(mcut.value), "lcut": _rat(lcut.value),
            "lambda2": _fmt(lcut.lambda2),
            "equal": mcut.value == lcut.value,
            "mcut_witness": _vertices_1based(mcut.witness),
            "lcut_positive_side": _vertices_1based(lcut.positive_side)}


# --which -> its characteristic polynomial and the sectors whose eigenvalues are its roots
_SECTORS = {"pnk": (charpoly.weighted_path_charpoly, (charpoly.EVEN,)),
            "qnk": (charpoly.roach_odd_charpoly, (charpoly.ODD,)),
            "product": (charpoly.roach_charpoly, (charpoly.EVEN, charpoly.ODD))}


def _cmd_charpoly(args):
    n, k = args.n, args.k
    if args.roots == (args.lam is not None):
        raise _UsageError("give exactly one of --lam X or --roots")
    if args.lam is not None and not math.isfinite(args.lam):
        raise _UsageError(f"--lam must be finite, got {args.lam}")
    doc, (poly, sectors) = {"which": args.which, "n": n, "k": k}, _SECTORS[args.which]
    if args.lam is not None:  # refused by the polynomial's normalization, before its recurrences
        value = poly(n, k, args.lam)
        if not math.isfinite(value):
            raise NumericError(f"polynomial evaluation overflowed at lambda={args.lam}")
        doc.update({"lambda": _fmt(args.lam), "value": _fmt(value)})
    else:
        charpoly.check_degrees(n, k)  # the sector blocks then stop at the dense cap
        import numpy as np
        from . import bisection
        roots = np.sort(np.concatenate([bisection.sector_eigenvalues(n, k, s) for s in sectors]))
        doc.update({"interval": [0, 2], "roots": [_fmt(x) for x in np.clip(roots, 0.0, 2.0)],
                    "count": len(roots)})
    return doc


def _cmd_sweep(args):
    fam = args.family.replace("-", "_")
    n_range, k_range = _parse_range(args.n_range), _parse_range(args.k_range)
    rows = cuts.formula_sweep(fam, n_range, k_range)
    return (_sweep_gnuplot if args.format == "gnuplot" else _sweep_csv)(rows)


def _cmd_bounds(args):
    g = _load_input(args)
    from . import matrices
    iso, h, gv, mcut = cuts.expansion_constants(g)
    norm, diff = (matrices.eig_sym(matrices.build_matrix(g, kind))
                  for kind in (MatrixKind.NORMALIZED, MatrixKind.DIFFERENCE))
    (lo_norm, hi_norm), (lo_diff, hi_diff) = norm.lambda2_interval(), diff.lambda2_interval()
    max_deg = max(g.degrees)
    x = min(max(max_deg, lo_diff), hi_diff)  # maximizes (2 max_deg - x) x on [lo_diff, hi_diff]
    # Each check is a published inequality, so it holds at the exact lambda2 in [lo, hi]: false
    # means the whole interval refutes it, a certified contradiction, so a fault in the program.
    return {
        "mcut": _rat(mcut.value),
        "lambda2_normalized": _fmt(norm.lambda2),
        "lambda2_difference": _fmt(diff.lambda2),
        "isoperimetric": _rat(iso),
        "cheeger_edge": _rat(h),
        "cheeger_vertex": _rat(gv),
        "max_degree": max_deg,
        "checks": {
            "mcut_ge_lambda2": lo_norm <= mcut.value,
            "isoperimetric_lower": lo_diff / 2 <= iso,
            "isoperimetric_upper": iso * iso <= (2 * max_deg - x) * x if g.n >= 4 else None,
            "cheeger_lower": h * h / 2 < hi_norm,
            "cheeger_upper": lo_norm <= 2 * h,
        },
    }


def _cmd_counterexample(args):
    krange = _parse_range(args.k_range)
    from . import bisection
    bisection.check_counterexample_range(krange)  # refuse the whole range first
    reports = [bisection.counterexample_check(k) for k in krange]
    return {"results": [{
        "k": r.k, "mcut": _rat(r.mcut), "mcut_method": r.mcut_method,
        "lcut": _rat(r.lcut), "lambda2": _fmt(r.lambda2), "parity": r.parity,
        "top_row_cut": r.top_row_cut, "strictly_less": r.strictly_less,
    } for r in reports]}


# Each command returns its JSON document, or its text (gen --format dot, sweep).
_COMMANDS = {
    "gen": _cmd_gen,
    "spectrum": _cmd_spectrum,
    "mcut": _cmd_mcut,
    "lcut": _cmd_lcut,
    "compare": _cmd_compare,
    "charpoly": _cmd_charpoly,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
    "counterexample": _cmd_counterexample,
}


_PARSER = None  # built on the first run, not at import
_EXIT_CODES = ((_UsageError, EXIT_USAGE), (SchemaError, EXIT_SCHEMA),
               (NumericError, EXIT_NUMERIC), (SpecLabError, EXIT_DOMAIN))


def _error_doc(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"


def run(argv, stdout=None, stderr=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        args = _PARSER.parse_args(argv)
        _emit(_COMMANDS[args.command](args), args.out,
              stdout if stdout is not None else sys.stdout)
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (_UsageError, SpecLabError) as exc:
        (stderr if stderr is not None else sys.stderr).write(_error_doc(exc))
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
