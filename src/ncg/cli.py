"""Command-line entry point.

Subcommands: validate, bisect, kernels (sample | check | mul), verify,
chern.  Exit codes: 0 all checks pass, 1 a verification failed (the
counterexample is part of the JSON report on stdout) or an internal fault
was raised (its message is printed as {"error": ...} on stderr), 2 malformed
input.

Runs are deterministic for a given manifest and seed: every random draw
comes from a stream derived by hashing (seed, suite, case, trial), and
reports are ordered by case name.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bisections import bisection_basis, decompose, reassemble
from .chern import VerificationError, chern_form, verify_closedness
from .coefficients import CoefficientError
from .forms import AbReducer, FormError
from .groupoid import GroupoidError, validate_bundle, validate_groupoid, validate_space
from .io import (LoadError, form_to_json, kernel_to_json, load_form,
                 load_kernel, load_manifest, suite_parameters)
from .kernels import (KernelError, KernelSampler, equivariance_residuals,
                      kernel_mul)
from .suites import SUITE_NAMES, derive_rng, run_suite

INPUT_ERRORS = (LoadError, GroupoidError, FormError, KernelError,
                CoefficientError, FileNotFoundError, KeyError,
                json.JSONDecodeError, ValueError)


def _emit(payload, output=None):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"interpolation parameter {text!r} has a zero "
                         "denominator") from None


def _fractions(values):
    return [_fraction(v) for v in values]


def cmd_validate(args) -> int:
    fixture = load_manifest(args.manifest)
    reports = [validate_groupoid(fixture.groupoid),
               validate_space(fixture.space)]
    for key in sorted(fixture.bundles):
        reports.append(validate_bundle(fixture.bundles[key]))
    bad = fixture.h.check()
    payload = {
        "fixture": fixture.name,
        "components": [{"subject": r.subject,
                        "valid": r.ok,
                        "violations": r.violations} for r in reports],
        "partition-function": "valid" if bad is None else f"fails at {bad}",
    }
    _emit(payload)
    ok = all(r.ok for r in reports) and bad is None
    if not ok:
        return 2
    return 0


def cmd_bisect(args) -> int:
    fixture = load_manifest(args.manifest)
    g = fixture.groupoid
    payload = {
        "fixture": fixture.name,
        "basis": [sorted(b.arrows) for b in bisection_basis(g)],
    }
    if args.form:
        form = load_form(args.form, g)
        pieces = decompose(form)
        certificate = []
        for item in pieces:
            piece = item[0]
            entry = {"piece": form_to_json(piece)}
            if form.degree == 0:
                entry["bisection"] = sorted(item[1].arrows)
            else:
                entry["left"] = sorted(item[1].arrows)
                entry["right"] = sorted(item[2].arrows)
                entry["pairs"] = sorted(list(p) for p in item[3].pairs)
            certificate.append(entry)
        payload["decomposition"] = certificate
        payload["reconstructs"] = reassemble(pieces, g, form.degree) == form
    _emit(payload)
    if payload.get("reconstructs") is False:
        return 1
    return 0


def cmd_kernels(args) -> int:
    fixture = load_manifest(args.manifest)
    bundle = fixture.bundle()
    if args.action == "sample":
        sampler = KernelSampler(bundle, args.slots)
        if sampler.dimension == 0:
            _emit({"sampler": "empty",
                   "detail": "no nonzero form-linear kernels at this slot count"},
                  args.output)
            return 0
        kernel = sampler.sample(derive_rng(args.seed, "cli-sample", args.slots))
        _emit(kernel_to_json(kernel), args.output)
        return 0
    if args.action == "check":
        kernel = load_kernel(args.kernel, bundle)
        payload = {"slots": kernel.degree,
                   "equivariant": kernel.equivariant,
                   "cocycle": kernel.cocycle}
        if not (kernel.equivariant and kernel.cocycle):
            r1, r2 = equivariance_residuals(kernel)
            payload["violations"] = {
                "interior": [str(k) for k in sorted(r1)][:10],
                "boundary": [str(k) for k in sorted(r2)][:10],
            }
        _emit(payload, args.output)
        return 0 if (kernel.equivariant and kernel.cocycle) else 1
    if args.action == "mul":
        k1 = load_kernel(args.kernel, bundle)
        k2 = load_kernel(args.other, bundle)
        _emit(kernel_to_json(kernel_mul(k1, k2)), args.output)
        return 0
    raise LoadError(f"unknown kernels action {args.action!r}")


def cmd_verify(args) -> int:
    u_values = _fractions(args.u) if args.u else None
    reports = []
    for source in args.fixture:
        fixture = load_manifest(source)
        params = suite_parameters(source)
        seed = args.seed if args.seed is not None else int(params["seed"])
        trials = args.trials if args.trials is not None else int(params["trials"])
        max_degree = args.max_degree if args.max_degree is not None \
            else int(params["max_degree"])
        us = u_values if u_values is not None else _fractions(params["u"])
        report = run_suite(args.suite, fixture, seed=seed, trials=trials,
                           max_degree=max_degree, u_values=us)
        reports.append(report)
    payload = reports[0] if len(reports) == 1 else {"reports": reports}
    _emit(payload, args.output)
    return 0 if all(r["passed"] for r in reports) else 1


def cmd_chern(args) -> int:
    fixture = load_manifest(args.manifest)
    u = _fraction(args.u)
    components = chern_form(fixture.connection(u=u), args.max_degree)
    verdicts = verify_closedness(components, AbReducer(fixture.groupoid),
                                 lambda d: f"closedness-degree-{d}-u-{u}")
    payload = {
        "fixture": fixture.name,
        "u": str(u),
        "components": {
            str(degree): {str(n): form_to_json(part)
                          for n, part in comp.parts.items()}
            for degree, comp in components.items()},
        "cases": sorted((v.payload() | {"name": v.name} for v in verdicts),
                        key=lambda c: c["name"]),
    }
    _emit(payload, args.output)
    return 0 if all(verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncg",
        description="Exact verification of the groupoid form calculus: "
                    "convolution algebra, bisections, module actions, "
                    "smoothing kernels, traces and Chern forms.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a fixture manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bisect", help="bisection basis and decompositions")
    p.add_argument("manifest")
    p.add_argument("--form", help="form file to decompose")
    p.set_defaults(func=cmd_bisect)

    p = sub.add_parser("kernels", help="sample, check or multiply kernels")
    p.add_argument("action", choices=("sample", "check", "mul"))
    p.add_argument("manifest")
    p.add_argument("--kernel", help="kernel file (check, mul)")
    p.add_argument("--other", help="second kernel file (mul)")
    p.add_argument("--slots", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--fixture", required=True, nargs="+",
                   help="manifest files or bundled fixture names")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--u", action="append",
                   help="interpolation parameter a/b (repeatable)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chern", help="Chern components and closedness")
    p.add_argument("manifest")
    p.add_argument("--u", default="1/2")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--output")
    p.set_defaults(func=cmd_chern)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:  # a ValueError, but not an input fault
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
