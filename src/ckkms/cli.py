"""Command-line frontend: parses matrices, vectors, and words, dispatches to
the library, and renders one deterministic JSON document per run.  The
`reproduce-paper` checks are stated in `ckkms.paper`; this module only runs
them in registry order and renders their rows.

Exit codes: 0 success or pass, 1 failed verification or rejected
membership, 2 usage errors (bad flags, malformed input, domain errors),
70 an internal error: any other exception a command raises is a bug, and its
traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction

from . import ckwords, classify, paper, perron, scalars, states, tensorops
from .errors import CkkmsError, MembershipRejected
from .intervals import Interval, Q
from .matrix01 import DEFAULT_DIMENSION_CAP, ZeroOneMatrix, kronecker_matrix
from .perron import FrequencyVector
from .scalars import Rat, fmt15


@dataclass(frozen=True)
class RunConfig:
    tolerance: Fraction = perron.DEFAULT_TOLERANCE
    precision: Fraction = perron.DEFAULT_PRECISION
    max_word_len: int = 3
    dimension_cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        if self.tolerance <= 0 or self.precision <= 0:
            raise ValueError("tolerance and precision must be positive")
        if not 0 <= self.max_word_len <= 8:
            raise ValueError("max_word_len must be between 0 and 8")
        if self.dimension_cap < 2:
            raise ValueError("the dimension cap must be at least 2")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# input parsing


@contextmanager
def _malformed(what: str, text: str):
    """Report a ValueError, KeyError or TypeError raised while parsing
    `text` as a usage error."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc


def parse_matrix(text: str) -> ZeroOneMatrix:
    text = text.strip()
    with _malformed("matrix", text):
        if text.upper().startswith("F") and text[1:].isdigit():
            return ZeroOneMatrix.full(int(text[1:]))
        obj = json.loads(text)
        if isinstance(obj, dict):
            return ZeroOneMatrix.from_json(obj)
        return ZeroOneMatrix(tuple(tuple(int(v) for v in row) for row in obj))


def _scalar_list(what: str, text: str) -> tuple:
    with _malformed(what, text):
        obj = json.loads(text)
        if not isinstance(obj, list):
            raise UsageError(f"{what} must be a JSON list")
        return tuple(scalars.scalar_from_json(v) for v in obj)


def parse_vector(text: str, matrix: ZeroOneMatrix | None = None,
                 precision=perron.DEFAULT_PRECISION):
    """A vector argument: JSON list of scalars, or the keyword `canonical`
    for (1/PFE, ..., 1/PFE) of the given matrix."""
    text = text.strip()
    if text == "canonical":
        if matrix is None:
            raise UsageError("`canonical` needs a matrix in the same command")
        return perron.canonical_point(matrix, precision).entries
    return _scalar_list("vector", text)


def parse_power_form(text: str) -> classify.PowerForm:
    with _malformed("power form", text):
        obj = json.loads(text)
        if not isinstance(obj, dict) or "base" not in obj or "exponents" not in obj:
            raise UsageError('power form JSON needs {"base":…, "exponents":[…]}')
        return classify.PowerForm(scalars.scalar_from_json(obj["base"]),
                                  tuple(int(e) for e in obj["exponents"]))


def parse_vector_or_power_form(text: str):
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_power_form(stripped)
    return parse_vector(stripped)


def parse_omega(text: str) -> FrequencyVector:
    return FrequencyVector(_scalar_list("frequencies", text))


# ---------------------------------------------------------------------------
# rendering


def _bounds(iv: Interval) -> list[str]:
    """The ends of an enclosure in one form: two fractions when both fit
    under 10^15, else two 20-digit decimals rounded outward, so that the
    enclosure stays valid."""
    ends = (iv.lo, iv.hi)
    if all(abs(x.numerator) < 10**15 and x.denominator < 10**15 for x in ends):
        return [str(x) for x in ends]
    return [str(decimal.Context(prec=20, rounding=r).divide(x.numerator, x.denominator))
            for x, r in zip(ends, (decimal.ROUND_FLOOR, decimal.ROUND_CEILING))]


def render_scalar(s: scalars.Scalar, precision=Q(1, 10**15)) -> dict:
    iv = scalars.refine(s, precision)
    out = {
        "float": fmt15(scalars.to_float(s)),
        "enclosure": _bounds(iv),
        "exact": scalars.is_exact(s),
    }
    if isinstance(s, Rat):
        out["rational"] = str(s.value)
    elif not isinstance(s, scalars.Enc):
        out["form"] = scalars.scalar_to_json(s)
    return out


def render_interval(iv: Interval) -> dict:
    lo, hi = _bounds(iv)
    return {
        "lo": lo,
        "hi": hi,
        "float": fmt15(float(iv.mid)),
        "width": fmt15(float(iv.width)),
    }


def render_lambda(label: classify.TypeLabel) -> dict:
    out = {"mode": label.mode}
    if isinstance(label.lam, Rat):
        out["lambda"] = str(label.lam.value)
    else:
        out["lambda"] = fmt15(scalars.to_float(label.lam))
        out["lambda_form"] = scalars.scalar_to_json(label.lam)
    out["lambda_float"] = fmt15(scalars.to_float(label.lam))
    if label.decomposition is not None:
        out["decomposition"] = {
            "base": scalars.scalar_to_json(label.decomposition.base),
            "exponents": list(label.decomposition.exponents),
        }
    return out


# ---------------------------------------------------------------------------
# command handlers: each returns (result, mode, residual, warnings, exit_code)


def _cmd_classify(args, config: RunConfig):
    vec = parse_vector_or_power_form(args.vector)
    label = classify.detect_lambda(vec)
    return render_lambda(label), label.mode, None, list(label.warnings), 0


def _cmd_tensor_type(args, config: RunConfig):
    a = parse_vector_or_power_form(args.a)
    b = parse_vector_or_power_form(args.b)
    label = classify.tensor_type(a, b)
    return render_lambda(label), label.mode, None, list(label.warnings), 0


def _cmd_power_type(args, config: RunConfig):
    if (args.p is None) != (args.q is None):
        raise UsageError("--p and --q must be given together")
    a = parse_vector_or_power_form(args.a)
    label = classify.power_type_direct(a, args.k, config.dimension_cap)
    result = render_lambda(label)
    if args.p is not None:
        r = classify.power_type_ck2(args.p, args.q, args.k)
        result["exponent_rule"] = r
    return result, label.mode, None, list(label.warnings), 0


def _parse_scalar_arg(text: str) -> scalars.Scalar:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = text  # bare fractions like 1/2 are handled by the scalar schema
    with _malformed("scalar", text):
        return scalars.scalar_from_json(obj)


def _cmd_afd_rule(args, config: RunConfig):
    lam = _parse_scalar_arg(args.lam)
    mu = _parse_scalar_arg(args.mu)
    label = classify.afd_tensor_label(lam, mu)
    # a guessed label may be an exact scalar, but only a proved one is exact
    rendered = dict(render_scalar(label.lam), exact=label.mode == "exact")
    return {"label": rendered}, label.mode, None, list(label.warnings), 0


def _cmd_iii1_family(args, config: RunConfig):
    entries = classify.iii1_family(args.n, config.dimension_cap)
    label = classify.detect_lambda([Rat(e) for e in entries])
    return ({"vector": [str(e) for e in entries], **render_lambda(label)},
            label.mode, None, [], 0)


def _cmd_pf(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    data = perron.pf_data(matrix, precision=config.precision)
    result = {
        "eigenvalue": render_interval(data.eigenvalue),
        "eigenvector": [render_interval(iv) for iv in data.eigenvector],
        "iterations": data.iterations,
    }
    return result, "exact", None, [], 0


def _cmd_solve_beta(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    omega = parse_omega(args.omega)
    solution = perron.solve_beta(matrix, omega, precision=config.precision)
    result = {
        "beta": render_interval(solution.beta),
        "parameters": [render_scalar(s) for s in solution.param.entries],
        "certificate": solution.param.certificate,
    }
    if solution.base is not None:
        result["base"] = render_scalar(solution.base)
        result["exponents"] = list(solution.exponents)
        result["scale"] = str(solution.scale)
    return result, solution.mode, None, [], 0


def _cmd_membership(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    vec = parse_vector(args.vector, matrix, config.precision)
    try:
        param = perron.in_lambda(matrix, vec, tolerance=config.tolerance)
    except MembershipRejected as exc:
        result = {"member": False, "reason": str(exc)}
        if exc.enclosure is not None:
            result["spectral_radius"] = render_interval(exc.enclosure)
        return result, "exact", None, [], 1
    return ({"member": True, "certificate": param.certificate},
            "exact" if param.certificate == "exact" else "heuristic",
            None, [], 0)


def _state_spec_from_args(matrix_text: str, vector_text: str, config: RunConfig):
    matrix = parse_matrix(matrix_text)
    vec = parse_vector(vector_text, matrix, config.precision)
    param = perron.in_lambda(matrix, vec, tolerance=config.tolerance)
    return states.state_spec(param, precision=config.precision)


def _cmd_state_eval(args, config: RunConfig):
    spec = _state_spec_from_args(args.matrix, args.vector, config)
    nf = ckwords.normalize(spec.matrix, ckwords.parse_word(args.word))
    value = states.eval_state(spec, nf)
    iv = scalars.refine(value, config.precision)
    result = {
        "value": render_scalar(value, config.precision),
        "enclosure_width": fmt15(float(iv.width)),
        "normal_form": ckwords.normal_form_to_json(nf),
    }
    return result, "exact" if scalars.is_exact(value) else "heuristic", None, [], 0


def _cmd_kms_check(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    omega = parse_omega(args.omega)
    solution = perron.solve_beta(matrix, omega, precision=config.precision)
    spec = states.state_spec(solution.param, precision=config.precision)
    x = ckwords.normalize(matrix, ckwords.parse_word(args.x))
    y = ckwords.normalize(matrix, ckwords.parse_word(args.y))
    check = states.kms_check(spec, omega, solution, x, y,
                             tolerance=config.tolerance,
                             precision=config.precision)
    result = {
        "ok": check.ok,
        "lhs": render_scalar(check.lhs),
        "rhs": render_scalar(check.rhs),
        "beta": render_interval(solution.beta),
    }
    mode = "exact" if check.residual == 0 else "heuristic"
    warnings = [] if mode == "exact" else [
        "residual is a certified enclosure bound, not a float estimate"]
    return (result, mode, fmt15(float(check.residual)), warnings,
            0 if check.ok else 1)


def _cmd_tensor_state(args, config: RunConfig):
    spec_a = _state_spec_from_args(args.matrix_a, args.vector_a, config)
    spec_b = _state_spec_from_args(args.matrix_b, args.vector_b, config)
    composite = kronecker_matrix(spec_a.matrix, spec_b.matrix,
                                 config.dimension_cap)
    nf = ckwords.normalize(composite, ckwords.parse_word(args.word))
    value = tensorops.tensor_state_eval(spec_a, spec_b, nf)
    result = {
        "value": render_scalar(value, config.precision),
        "composite_dimension": composite.n,
    }
    return result, "exact" if scalars.is_exact(value) else "heuristic", None, [], 0


def _cmd_verify_homomorphism(args, config: RunConfig):
    spec_a = _state_spec_from_args(args.matrix_a, args.vector_a, config)
    spec_b = _state_spec_from_args(args.matrix_b, args.vector_b, config)
    report = tensorops.verify_tensor_identity(
        spec_a, spec_b, max_len=config.max_word_len,
        tolerance=config.tolerance)
    result = {
        "passed": report.passed,
        "max_residual": fmt15(float(report.max_residual)),
        "diagonal_monomials": report.diagonal_count,
        "max_word_len": report.max_len,
    }
    mode = "exact" if report.max_residual == 0 else "heuristic"
    warnings = [] if mode == "exact" else [
        "residual is a certified enclosure bound, not a float estimate"]
    return (result, mode, fmt15(float(report.max_residual)), warnings,
            0 if report.passed else 1)


def _cmd_coassoc(args, config: RunConfig):
    with _malformed("--dims", args.dims):
        dims = [int(d) for d in args.dims.split(",")]
    if len(dims) != 3:
        raise UsageError("--dims needs three comma-separated integers")
    ok = tensorops.check_coassociativity(*dims)
    return {"passed": ok, "dims": dims}, "exact", None, [], 0 if ok else 1


def _cmd_normalize(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    word = ckwords.parse_word(args.word)
    nf = ckwords.normalize(matrix, word, strategy=args.strategy)
    return ({"normal_form": ckwords.normal_form_to_json(nf),
             "is_zero": nf.is_zero}, "exact", None, [], 0)


# ---------------------------------------------------------------------------
# reproduction report


def render_check(check_id: str, passed: bool, detail: dict) -> dict:
    """One `reproduce-paper` row: a type label is spread into the row, and
    scalars, intervals and residual bounds are rendered; JSON passes through."""
    row = {"id": check_id, "passed": bool(passed)}
    for key, value in detail.items():
        if isinstance(value, classify.TypeLabel):
            row.update(render_lambda(value))
        elif isinstance(value, scalars.Scalar):
            row[key] = render_scalar(value)
        elif isinstance(value, Interval):
            row[key] = render_interval(value)
        elif isinstance(value, Fraction):
            row[key] = fmt15(float(value))
        else:
            row[key] = value
    return row


def _cmd_reproduce(args, config: RunConfig):
    checks = [render_check(check_id, *check(config.precision, config.tolerance))
              for check_id, check in paper.CHECKS]
    passed = all(c["passed"] for c in checks)
    result = {
        "passed": passed,
        "total": len(checks),
        "failed": [c["id"] for c in checks if not c["passed"]],
        "checks": checks,
    }
    return result, "exact", None, [], 0 if passed else 1


# ---------------------------------------------------------------------------
# driver


_HANDLERS = {
    "classify": _cmd_classify,
    "tensor-type": _cmd_tensor_type,
    "power-type": _cmd_power_type,
    "afd-rule": _cmd_afd_rule,
    "iii1-family": _cmd_iii1_family,
    "pf": _cmd_pf,
    "solve-beta": _cmd_solve_beta,
    "membership": _cmd_membership,
    "state-eval": _cmd_state_eval,
    "kms-check": _cmd_kms_check,
    "tensor-state": _cmd_tensor_state,
    "verify-homomorphism": _cmd_verify_homomorphism,
    "coassoc": _cmd_coassoc,
    "normalize": _cmd_normalize,
    "reproduce-paper": _cmd_reproduce,
}


def _add_global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    def default(value):
        return argparse.SUPPRESS if suppress else value

    config = RunConfig()
    parser.add_argument("--tolerance", default=default(str(config.tolerance)),
                        help="comparison tolerance as a fraction or decimal")
    parser.add_argument("--precision", default=default(str(config.precision)),
                        help="working enclosure precision")
    parser.add_argument("--max-word-len", type=int, default=default(config.max_word_len))
    parser.add_argument("--dimension-cap", type=int,
                        default=default(config.dimension_cap))
    parser.add_argument("--out", default=default(None),
                        help="also write the JSON here")
    parser.add_argument("--format", choices=("json", "table"),
                        default=default("json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckkms",
        description="KMS states over Cuntz-Krieger algebras: classification, "
                    "certified eigendata, and verification reports.")
    _add_global_flags(parser, suppress=False)
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", parents=[common],
                       help="type label of a parameter vector")
    p.add_argument("--vector", required=True)

    p = sub.add_parser("tensor-type", parents=[common],
                       help="type label of a Kronecker product")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("power-type", parents=[common],
                       help="type label of a Kronecker power")
    p.add_argument("--a", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)

    p = sub.add_parser("afd-rule", parents=[common],
                       help="tensor rule for two type labels")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("iii1-family", parents=[common],
                       help="rational vectors with label 1")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("pf", parents=[common],
                       help="certified spectral data of a 0-1 matrix")
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("solve-beta", parents=[common],
                       help="inverse temperature for frequencies")
    p.add_argument("--matrix", required=True)
    p.add_argument("--omega", required=True)

    p = sub.add_parser("membership", parents=[common],
                       help="is the vector on the KMS manifold")
    p.add_argument("--matrix", required=True)
    p.add_argument("--vector", required=True)

    p = sub.add_parser("state-eval", parents=[common],
                       help="evaluate a state on a word")
    p.add_argument("--matrix", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("kms-check", parents=[common],
                       help="check the KMS identity on words")
    p.add_argument("--matrix", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("tensor-state", parents=[common],
                       help="tensor state on a composite word")
    p.add_argument("--matrix-a", required=True)
    p.add_argument("--vector-a", required=True)
    p.add_argument("--matrix-b", required=True)
    p.add_argument("--vector-b", required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("verify-homomorphism", parents=[common],
                       help="compare tensor evaluation with the product state")
    p.add_argument("--matrix-a", required=True)
    p.add_argument("--vector-a", required=True)
    p.add_argument("--matrix-b", required=True)
    p.add_argument("--vector-b", required=True)

    p = sub.add_parser("coassoc", parents=[common],
                       help="index-splitting coassociativity")
    p.add_argument("--dims", required=True, help="three dims, e.g. 2,3,2")

    p = sub.add_parser("normalize", parents=[common],
                       help="normal form of a word")
    p.add_argument("--matrix", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--strategy", choices=("leftmost", "rightmost"),
                   default="leftmost")

    sub.add_parser("reproduce-paper", parents=[common],
                   help="run the worked-example suite")
    return parser


def _parse_bound(text: str) -> Fraction:
    try:
        return Q(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse bound {text!r}") from exc


def _as_table(doc: dict, prefix: str = "") -> list:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_as_table(value, name + "."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.extend(_as_table(item, f"{name}[{i}]."))
        else:
            lines.append(f"{name} = {value}")
    return lines


def _reject_unknown_leading_flags(parser: argparse.ArgumentParser, argv) -> None:
    """Name an unknown flag given before the command; argparse would take its
    value for the command and report that as an invalid choice."""
    known = parser._option_string_actions
    tokens = iter(argv)
    for token in tokens:
        if token == "--" or not token.startswith("-"):
            return
        name = token.split("=", 1)[0]
        actions = {a for s, a in known.items()
                   if s == name or (name.startswith("--") and s.startswith(name))}
        if not actions:
            parser.error(f"unrecognized arguments: {token}")
        if len(actions) == 1 and actions.pop().nargs != 0 and "=" not in token:
            next(tokens, None)  # the flag's value


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _reject_unknown_leading_flags(parser, sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    try:
        config = RunConfig(
            tolerance=_parse_bound(args.tolerance),
            precision=_parse_bound(args.precision),
            max_word_len=args.max_word_len,
            dimension_cap=args.dimension_cap,
        )
    except (ValueError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = _HANDLERS[args.command]
    try:
        result, mode, residual, warnings, code = handler(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MembershipRejected as exc:
        doc = {
            "command": args.command,
            "inputs": _inputs_of(args),
            "result": {"rejected": True, "reason": str(exc)},
            "mode": "exact",
            "residual": None,
            "warnings": [],
        }
        return _emit(doc, args, 1)
    except CkkmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 70  # EX_SOFTWARE in sysexits.h
    doc = {
        "command": args.command,
        "inputs": _inputs_of(args),
        "result": result,
        "mode": mode,
        "residual": residual,
        "warnings": warnings,
    }
    return _emit(doc, args, code)


def _inputs_of(args) -> dict:
    skip = {"command", "out", "format",
            *(f.name for f in fields(RunConfig))}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _emit(doc: dict, args, code: int) -> int:
    """Write the envelope to --out, then print it, and return `code`: 2
    when --out cannot be written (nothing is printed), 141 (128 + SIGPIPE)
    when stdout is closed."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if getattr(args, "format", "json") == "table":
        text = "\n".join(_as_table(doc))
    out = getattr(args, "out", None)
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the text left in the buffer goes to devnull, so that the flush at
        # exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
