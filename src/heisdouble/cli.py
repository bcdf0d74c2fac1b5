"""Command-line interface: build instances, verify axioms, normal-order
expressions, evaluate pairings, antipodes, and Fock matrices.

All output is deterministic; exit status is 0 on success, 1 when a
verification fails, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .double import fock_matrix, verify_commutation, verify_shift_invariance, verify_vacuum
from .expr import (ExprEvalError, ExprSyntaxError, evaluate_text,
                   pure_minus, pure_plus)
from .hopf import antipode, check_bialgebra, element_str
from .instances import ConfigError, load_instance
from .pairing import check_pairing_axioms, dual_presentation_check, perfectness_check
from .twisting import compatibility_check


def build_parser():
    p = argparse.ArgumentParser(
        prog="heisdouble",
        description="exact computations in twisted Heisenberg doubles")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, expr=False, degree=False):
        sp.add_argument("--instance", required=True,
                        help="path to an instance config JSON file")
        if expr:
            sp.add_argument("--expr", action="append", required=True,
                            help="generator expression")
        if degree:
            sp.add_argument("--max-degree", type=int, required=True,
                            help="total-degree truncation bound")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--out", help="write output to this file")

    sp = sub.add_parser("verify", help="run the full verification suite")
    common(sp, degree=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("normal-order", help="normal-order an expression")
    common(sp, expr=True)
    sp.set_defaults(func=cmd_normal_order)

    sp = sub.add_parser("pair", help="pair a minus expression with a plus expression")
    common(sp, expr=True)
    sp.set_defaults(func=cmd_pair)

    sp = sub.add_parser("antipode", help="antipode of a one-sided expression")
    common(sp, expr=True)
    sp.set_defaults(func=cmd_antipode)

    sp = sub.add_parser("fock-matrix", help="matrix of an element on the Fock space")
    common(sp, expr=True)
    sp.add_argument("--in-degree", type=int, required=True,
                    help="largest input total degree")
    sp.set_defaults(func=cmd_fock_matrix)

    sp = sub.add_parser("info", help="describe an instance")
    common(sp)
    sp.add_argument("--gram", type=int, metavar="N",
                    help="also export Gram blocks up to total degree N")
    sp.set_defaults(func=cmd_info)

    return p


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ConfigError("cannot write output: %s" % e) from None
    else:
        print(text)


def _single_expr(args):
    if len(args.expr) != 1:
        raise ConfigError("this command takes exactly one --expr")
    return args.expr[0]


def verify_suite(inst, N):
    """Run verify's checks on inst at N, in order: the reports, and the
    names of the checks a degenerate form skips.

    A check that presupposes earlier ones gets presupposed=True exactly
    when every one of them passed in this run; check_pairing_axioms then
    runs its reduced sweeps."""
    D = inst.double
    # (key, check, its arguments before N, whether a degenerate form skips
    # it, keys of the earlier checks it presupposes), read at call time so
    # that a patched check is the one that runs
    suite = [
        ("bialgebra+", check_bialgebra, (inst.plus,), False, ()),
        ("bialgebra-", check_bialgebra, (inst.minus,), False, ()),
        ("pairing", check_pairing_axioms, (inst.pairing,), False,
         ("bialgebra+", "bialgebra-")),
        ("dual", dual_presentation_check, (inst.pairing,), False, ()),
        ("perfect", perfectness_check, (inst.pairing,), True, ()),
        ("commutation", verify_commutation, (D,), False, ()),
        ("vacuum", verify_vacuum, (D,), True, ()),
        ("shift", verify_shift_invariance, (D, 1), False, ()),
    ]
    passed, reports, skipped = set(), [], []
    for key, check, context, needs_perfect, presupposes in suite:
        if needs_perfect and not D.perfect:
            skipped.append(check.__name__)
            continue
        options = {"presupposed": passed.issuperset(presupposes)} if presupposes else {}
        rep = check(*context, N, **options)
        if rep.passed:
            passed.add(key)
        reports.append(rep)
    return reports, skipped


def cmd_verify(args):
    N = args.max_degree
    if N < 1:
        # at N = 0 every sweep meets only the unit: nothing would be checked
        raise ConfigError("--max-degree must be positive")
    inst = load_instance(args.instance)
    reports, skipped = verify_suite(inst, N)
    ok = all(r.passed for r in reports)
    if args.json:
        payload = {"instance": inst.name, "N": N,
                   "reports": [r.to_json() for r in reports],
                   "skipped": skipped,
                   "status": "pass" if ok else "fail"}
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [str(r) for r in reports]
        lines.extend("%s[%s, N=%d]: skipped (degenerate form)" % (s, inst.name, N)
                     for s in skipped)
        lines.append("overall: %s" % ("pass" if ok else "fail"))
        _emit(args, "\n".join(lines))
    return 0 if ok else 1


def cmd_normal_order(args):
    inst = load_instance(args.instance)
    el = evaluate_text(inst.double, _single_expr(args))
    text = inst.double.element_str(el)
    if args.json:
        _emit(args, json.dumps({"instance": inst.name,
                                "expr": args.expr[0],
                                "normal_form": text}, indent=2))
    else:
        _emit(args, text)
    return 0


def cmd_pair(args):
    inst = load_instance(args.instance)
    if len(args.expr) != 2:
        raise ConfigError("pair takes --expr twice: minus side, then plus side")
    D = inst.double
    x = pure_minus(D, evaluate_text(D, args.expr[0]))
    if x is None:
        raise ConfigError("first expression must lie in the minus algebra")
    a = pure_plus(D, evaluate_text(D, args.expr[1]))
    if a is None:
        raise ConfigError("second expression must lie in the plus algebra")
    value = inst.pairing.pair(x, a)
    if args.json:
        _emit(args, json.dumps({"instance": inst.name, "minus": args.expr[0],
                                "plus": args.expr[1], "value": str(value)},
                               indent=2))
    else:
        _emit(args, str(value))
    return 0


def cmd_antipode(args):
    inst = load_instance(args.instance)
    D = inst.double
    el = evaluate_text(D, _single_expr(args))
    a = pure_plus(D, el)
    if a is not None:
        out = element_str(inst.plus, antipode(inst.plus, a))
    else:
        x = pure_minus(D, el)
        if x is None:
            raise ConfigError("antipode requires a pure one-sided expression")
        out = element_str(inst.minus, antipode(inst.minus, x))
    if args.json:
        _emit(args, json.dumps({"instance": inst.name, "expr": args.expr[0],
                                "antipode": out}, indent=2))
    else:
        _emit(args, out)
    return 0


def cmd_fock_matrix(args):
    inst = load_instance(args.instance)
    D = inst.double
    if not D.perfect:
        raise ConfigError("fock-matrix requires a nondegenerate pairing")
    if args.in_degree < 0:
        raise ConfigError("--in-degree must be nonnegative")
    el = evaluate_text(D, _single_expr(args))
    rows, cols, matrix = fock_matrix(D, el, args.in_degree)
    payload = {
        "instance": inst.name,
        "expr": args.expr[0],
        "in_degree": args.in_degree,
        "out_degree": max([l.degree for l in rows], default=0),
        "row_labels": [D.plus.label_text(l) for l in rows],
        "col_labels": [D.plus.label_text(l) for l in cols],
        "entries": [[str(v) for v in row] for row in matrix],
    }
    # matrix export is always JSON; --json is accepted for uniformity
    _emit(args, json.dumps(payload, indent=2))
    return 0


def cmd_info(args):
    if args.gram is not None and args.gram < 0:
        raise ConfigError("--gram must be nonnegative")
    inst = load_instance(args.instance)
    D = inst.double
    chi, xi, gamma = inst.plus.twisting, inst.minus.twisting, inst.pairing.gamma
    # a form on Z prints as its 1x1 matrix, the shape configs give it in;
    # rank is the rank of the grading, N
    payload = {
        "instance": inst.name,
        "type": inst.kind,
        "rank": 1,
        "chi": [[chi.prime]],
        "chi_doubleprime": [[chi.doubleprime]],
        "xi": [[xi.prime]],
        "xi_doubleprime": [[xi.doubleprime]],
        "gamma": [[gamma.prime]],
        "gamma_doubleprime": [[gamma.doubleprime]],
        "compatible": compatibility_check(chi, gamma),
        "perfect": D.perfect,
        "generators": D.generator_names(),
        "basis_sizes": {str(d): len(inst.plus.basis(d)) for d in range(5)},
    }
    if args.gram is not None:
        payload["gram"] = inst.pairing.gram_to_json(args.gram)
    if args.json:
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = ["instance: %s (type %s)" % (inst.name, inst.kind),
                 "rank: %d" % payload["rank"],
                 "chi: %s" % chi,
                 "xi: %s" % xi,
                 "gamma: %s" % gamma,
                 "compatible: %s" % str(payload["compatible"]).lower(),
                 "perfect pairing: %s" % str(D.perfect).lower(),
                 "generators: " + ", ".join(payload["generators"]),
                 "basis sizes: " + " ".join(
                     "%s:%d" % (d, s) for d, s in payload["basis_sizes"].items())]
        if args.gram is not None:
            lines.append("gram blocks up to degree %d written as JSON only; use --json"
                         % args.gram)
        _emit(args, "\n".join(lines))
    return 0


def _expr_values(argv):
    """argv with each "--expr -VALUE" written "--expr=-VALUE", so that an
    expression that starts with a minus sign, such as "-d*x", is read as
    the value of --expr and not as an option.

    --expr may be abbreviated as argparse allows ("--exp -d*x").  Everything
    else is left to argparse: a value that does not start with a minus sign
    (argparse reads it already), one that starts with "--" (another option,
    so "--expr --json" is still a usage error), a missing value, and every
    token after a "--".
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            out.extend(argv[i:])
            break
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (len(tok) > 2 and "--expr".startswith(tok)
                and value.startswith("-") and not value.startswith("--")):
            tok += "=" + value
            i += 1
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_expr_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ConfigError, ExprSyntaxError, ExprEvalError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
