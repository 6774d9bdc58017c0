"""Command-line surface: build, bench, cayley, oqs, plotdata.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 verification
mismatch, 5 dense build too large (dense cap exceeded, or a TTNO tensor
that ``build --verify`` cannot allocate densely).  CSVs carry a header
row; floats are printed with 17 significant digits.  Seeds are mandatory
for benchmarks and seed 0 is refused.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
import warnings

import numpy as np

from . import assembly, closedform, diagram, oqs, svdref
from .errors import (DenseCapExceededError, UnknownOperatorError,
                     ValidationError)
from .operators import (Hamiltonian, OperatorRegistry, ProductTerm,
                        SiteOperator, to_dense)
from .tree import TreeTopology, UniqueKeys, _known_keys, as_int

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VERIFY = 4
EXIT_CAP = 5


def _load_json(path: str):
    keys = UniqueKeys()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=keys)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, or an integer literal past int's digit
        # limit; RecursionError: arrays or objects nested too deep to decode
        raise _ParseFailure(f"{path}: {exc}") from exc
    if keys.repeat:
        raise ValidationError(f"{path}: {keys.repeat}")
    return data


class _ParseFailure(Exception):
    pass


def _number(x):
    """``x`` for ``complex()``: a bool is refused, and an integer no float
    holds is the infinity it rounds to, as ``read_ttno`` reads it."""
    if type(x) is bool:
        raise TypeError("complex() would read a bool as a number")
    if type(x) is int and abs(x) > sys.float_info.max:
        return float(str(x))  # float(x) raises OverflowError
    return x


def load_hamiltonian(tree: TreeTopology, data: dict) -> tuple[Hamiltonian,
                                                              OperatorRegistry]:
    """Hamiltonian and operator registry from parsed JSON; every malformed
    field raises ValidationError naming the field and the term or site."""
    if not isinstance(data, dict):
        raise ValidationError("hamiltonian JSON must be an object")
    _known_keys(data, "hamiltonian JSON", "operators", "terms")
    operators = data.get("operators", {})
    if not isinstance(operators, dict):
        raise ValidationError("hamiltonian JSON 'operators' must be an "
                              "object mapping labels to operators")
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list):
        raise ValidationError("hamiltonian JSON 'terms' must be a list")
    registry = OperatorRegistry()
    for label, spec in operators.items():
        if isinstance(spec, dict):
            _known_keys(spec, f"operator {label!r}", "dim", "matrix")
        try:
            dim, flat = as_int(spec["dim"]), spec["matrix"]
            if dim is None:
                raise TypeError("int() would read '2' as 2")
            mat = np.array([complex(_number(re), _number(im))
                            for re, im in flat], dtype=complex)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"operator {label!r}: needs an integer "
                                  f"'dim' and a [re, im] 'matrix'") from exc
        if dim < 1:
            raise ValidationError(f"operator {label!r}: 'dim' {dim} must be "
                                  f">= 1")
        if len(flat) != dim * dim:
            # no list holds 2**63 entries: a longer count is not spelled out
            n = str(dim * dim)
            n = n if len(n) < 20 else f"'dim' squared ({len(n)} digits)"
            raise ValidationError(
                f"matrix for {label!r} must hold {n} row-major entries")
        registry.register(label, mat.reshape(dim, dim))
    terms = []
    for i, raw in enumerate(raw_terms):
        raw_factors = raw.get("factors", {}) if isinstance(raw, dict) else None
        if not isinstance(raw_factors, dict):
            raise ValidationError(f"term {i}: needs an object 'factors'")
        _known_keys(raw, f"term {i}", "coeff", "factors")
        try:
            re, im = map(_number, raw.get("coeff", [1.0, 0.0]))
            coeff = complex(re, im)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"term {i}: 'coeff' must be a [re, im] "
                                  f"pair of numbers") from exc
        if not cmath.isfinite(coeff):
            raise ValidationError(f"term {i}: 'coeff' [{re}, {im}] is not "
                                  f"finite")
        factors, keys = {}, {}
        for site_str, label in raw_factors.items():
            try:
                site = int(site_str)
            except ValueError as exc:
                raise ValidationError(f"term {i}: 'factors' site {site_str!r} "
                                      f"is not an integer") from exc
            if site in keys:
                raise ValidationError(
                    f"term {i}: 'factors' keys {keys[site]!r} and "
                    f"{site_str!r} both name site {site}")
            if site_str != str(site):  # int() reads "1_0" as 10
                raise ValidationError(f"term {i}: 'factors' site "
                                      f"{site_str!r} is not written as the "
                                      f"integer {site}")
            keys[site] = site_str
            if not isinstance(label, str):
                raise ValidationError(f"term {i}, site {site}: factor label "
                                      f"{label!r} must be a string")
            if site not in tree.phys_dims:
                raise ValidationError(
                    f"term {i}: factor on unknown site {site}")
            try:
                registry.lookup(label, tree.phys_dim(site))
            except UnknownOperatorError as exc:
                raise UnknownOperatorError(
                    f"term {i}, site {site}: {exc}") from exc
            factors[site] = SiteOperator(label, tree.phys_dim(site))
        try:
            terms.append(ProductTerm(coeff, factors))
        except ValidationError as exc:  # a zero coeff, or an "I" factor
            raise ValidationError(f"term {i}: {exc}") from exc
    if not terms:
        raise ValidationError("hamiltonian has no terms")
    return Hamiltonian(tree, terms), registry


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _check_writable(*paths: str | None) -> None:
    """Fail on the first output path that cannot be opened for writing,
    before anything is written, so a failed run leaves no output behind.
    A probe leaves an existing file as it was and removes a file it
    created."""
    for path in paths:
        if path is None or path == "-":
            continue
        existed = os.path.exists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise _ParseFailure(f"{path}: {exc}") from exc
        if not existed:
            os.remove(path)


def _write_ttno(ttno: assembly.TTNO, path: str) -> None:
    try:
        assembly.write_ttno(ttno, path)
    except OSError as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _edge_rows(dims: dict) -> list[list]:
    return [[f"{e[0]}-{e[1]}", dims[e]] for e in sorted(dims)]


def verify_dump_against(path: str, h: Hamiltonian,
                        registry: OperatorRegistry) -> bool:
    """Re-read a TTNO dump and compare its contraction to the dense build."""
    ttno = assembly.read_ttno(path)
    got = assembly.contract_to_dense(ttno)
    want = to_dense(h, registry=registry)
    return bool(np.allclose(got, want, atol=1e-12, rtol=0.0))


def cmd_build(args) -> int:
    _check_writable(args.out, args.report)
    tree = TreeTopology.from_json_dict(_load_json(args.tree))
    h, registry = load_hamiltonian(tree, _load_json(args.hamiltonian))
    g = diagram.from_hamiltonian(h)
    ttno = assembly.emit_tensors(g, registry=registry)
    _write_ttno(ttno, args.out)
    dims = g.bond_dimensions()
    if args.report:
        _write(args.report,
               svdref.csv_text(["edge", "alg_dim"], _edge_rows(dims)))
    if args.verify:
        if not verify_dump_against(args.out, h, registry):
            print("verification FAILED: contraction differs from dense build",
                  file=sys.stderr)
            return EXIT_VERIFY
        print("verification passed")
    print(f"built TTNO: {len(tree.nodes)} sites, "
          f"max bond {max(dims.values()) if dims else 1}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.seed == 0:
        raise ValidationError("seed 0 is refused; pick an explicit seed")
    if args.seed < 0:
        raise ValidationError(f"--seed {args.seed} must be positive")
    if args.samples < 1:
        raise ValidationError(f"--samples {args.samples} must be positive")
    _check_writable(args.out, args.summary)
    tree = TreeTopology.from_json_dict(_load_json(args.tree))
    if args.root_at_leaf and tree.edges:  # a single site stays the root
        leaves = [s for s in tree.nodes
                  if len(tree.neighbours(s)) == 1]
        tree = tree.re_root(min(leaves))
    try:
        term_counts = [int(x) for x in args.terms.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"--terms {args.terms} must list integers "
                              f"separated by commas") from exc
    if not term_counts:
        raise ValidationError("--terms must list at least one term count")
    labels = [x for x in args.labels.split(",") if x]
    with warnings.catch_warnings():
        if args.root_at_leaf:
            warnings.simplefilter("ignore")
        results = svdref.run_bench(tree, term_counts, args.samples, args.seed,
                                   op_labels=labels,
                                   max_support=args.max_support)
    # both texts first, so that a refused summary leaves no detail file
    detail = svdref.detail_csv(results)
    if args.summary:
        try:
            summary = svdref.summary_csv(results)
        except ValidationError as exc:
            raise ValidationError(f"{args.tree}: {exc}") from exc
    _write(args.out, detail)
    if args.summary:
        _write(args.summary, summary)
    return EXIT_OK


def cmd_cayley(args) -> int:
    spec = closedform.CayleyTreeSpec(args.degree, args.depth)
    if args.all_to_all:
        rows = [[spec.degree, spec.depth, "all",
                 closedform.all_to_all_bound(spec),
                 closedform.brute_force_all_to_all_bond(spec)]]
    else:
        chis = ([args.range] if args.range is not None
                else range(1, 2 * spec.depth))
        rows = [[spec.degree, spec.depth, chi,
                 closedform.fixed_range_bond_bound(spec, chi),
                 closedform.brute_force_root_bond(spec, chi)] for chi in chis]
    _write(args.out, svdref.csv_text(
        ["degree", "depth", "chi", "closed_form", "brute_force"], rows))
    wrong = [row for row in rows if row[3] != row[4]]
    for degree, depth, chi, cf, bf in wrong:
        print(f"verification FAILED: degree {degree}, depth {depth}, chi "
              f"{chi}: closed form {cf} != brute force {bf}", file=sys.stderr)
    return EXIT_VERIFY if wrong else EXIT_OK


def cmd_oqs(args) -> int:
    for flag in ("coupling", "g_re", "g_im", "omega"):
        value = getattr(args, flag)
        if not cmath.isfinite(value):
            raise ValidationError(
                f"--{flag.replace('_', '-')} {value} is not finite")
    _check_writable(args.out, args.report)
    g_val = complex(args.g_re, args.g_im)
    spec = oqs.OQSSpec(args.spins, args.baths, coupling=args.coupling,
                       g=g_val, omega=args.omega, boson_dim=args.boson_dim)
    h = oqs.oqs_hamiltonian(spec, args.topology)
    g = diagram.from_hamiltonian(h)
    ttno = assembly.emit_tensors(g)
    if args.out:
        _write_ttno(ttno, args.out)
    dims = g.bond_dimensions()
    if args.report:
        rows = _edge_rows(dims)
        rows.append(["element_count", assembly.element_count(ttno)])
        rows.append(["dense_element_count",
                     assembly.dense_element_count(ttno)])
        _write(args.report, svdref.csv_text(["edge", "bond_dim"], rows))
    print(f"{args.topology}: {len(h.tree.nodes)} sites, "
          f"max bond {max(dims.values()) if dims else 1}, "
          f"elements {assembly.element_count(ttno)}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    try:
        with open(args.csv, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise _ParseFailure(f"{args.csv}: {exc}") from exc
    if not rows:
        raise _ParseFailure(f"{args.csv}: empty or header-only CSV")
    required = {"n_terms", "alg_dim", "opt_dim"}
    if not required.issubset(rows[0]):
        raise _ParseFailure(
            f"{args.csv}: need columns {sorted(required)}")

    hist: dict[tuple[int, int], int] = {}
    by_terms: dict[int, list[int]] = {}
    for row in rows:
        try:
            alg = int(row["alg_dim"])
            opt = int(row["opt_dim"])
            n_terms = int(row["n_terms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _ParseFailure(f"{args.csv}: bad row {row}") from exc
        hist[(alg, opt)] = hist.get((alg, opt), 0) + 1
        by_terms.setdefault(n_terms, []).append(alg - opt)

    prefix = args.out_prefix
    _check_writable(*(f"{prefix}_{part}.dat"
                      for part in ("hist", "rdiff", "diag")))
    lines = ["alg_dim opt_dim count"]
    for (alg, opt) in sorted(hist):
        lines.append(f"{alg} {opt} {hist[(alg, opt)]}")
    _write(f"{prefix}_hist.dat", "\n".join(lines) + "\n")

    lines = ["n_terms r_diff"]
    for n_terms in sorted(by_terms):
        diffs = by_terms[n_terms]
        lines.append(f"{n_terms} {svdref.fmt_float(sum(diffs) / len(diffs))}")
    _write(f"{prefix}_rdiff.dat", "\n".join(lines) + "\n")

    lo = min(min(a, o) for a, o in hist)
    hi = max(max(a, o) for a, o in hist)
    lines = ["dim dim"] + [f"{v} {v}" for v in range(lo, hi + 1)]
    _write(f"{prefix}_diag.dat", "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ttno",
        description="Tree tensor network operator construction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="compile a Hamiltonian file into a TTNO")
    b.add_argument("tree", help="tree JSON file")
    b.add_argument("hamiltonian", help="Hamiltonian JSON file")
    b.add_argument("--out", required=True, help="TTNO dump path")
    b.add_argument("--report", help="bond-dimension CSV path")
    b.add_argument("--verify", action="store_true",
                   help="re-read the dump and compare against the dense build")
    b.set_defaults(func=cmd_build)

    be = sub.add_parser("bench", help="random-Hamiltonian bond-dimension study")
    be.add_argument("tree")
    be.add_argument("--terms", default="5,10,20,30",
                    help="comma-separated term counts")
    be.add_argument("--samples", type=int, required=True)
    be.add_argument("--seed", type=int, required=True)
    be.add_argument("--labels", default="X,Y,Z")
    be.add_argument("--max-support", type=int, default=None)
    be.add_argument("--root-at-leaf", action="store_true",
                    help="re-root the tree at its smallest leaf first")
    be.add_argument("--out", required=True, help="per-edge detail CSV")
    be.add_argument("--summary", help="summary CSV (n_terms, r_diff)")
    be.set_defaults(func=cmd_bench)

    c = sub.add_parser("cayley", help="fixed-range bond bounds on Cayley trees")
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--depth", type=int, required=True)
    reach = c.add_mutually_exclusive_group()
    reach.add_argument("--range", type=int, default=None, dest="range",
                       help="interaction range (default: sweep 1..2*depth-1)")
    reach.add_argument("--all-to-all", action="store_true")
    c.add_argument("--out", default="-", help="output CSV (default stdout)")
    c.set_defaults(func=cmd_cayley)

    o = sub.add_parser("oqs", help="spin-boson model TTNO on a chosen topology")
    o.add_argument("--topology", choices=oqs.TOPOLOGIES, required=True)
    o.add_argument("--spins", type=int, required=True)
    o.add_argument("--baths", type=int, required=True)
    o.add_argument("--boson-dim", type=int, default=2)
    o.add_argument("--coupling", type=float, default=1.0)
    o.add_argument("--g-re", type=float, default=0.5)
    o.add_argument("--g-im", type=float, default=0.25)
    o.add_argument("--omega", type=float, default=1.5)
    o.add_argument("--out", help="TTNO dump path")
    o.add_argument("--report", help="per-edge bond dims + element counts CSV")
    o.set_defaults(func=cmd_oqs)

    pl = sub.add_parser("plotdata", help="gnuplot-ready files from a bench CSV")
    pl.add_argument("csv", help="per-edge detail CSV from `ttno bench`")
    pl.add_argument("--out-prefix", required=True)
    pl.set_defaults(func=cmd_plotdata)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DenseCapExceededError as exc:
        print(f"dense build too large: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
