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


def parse_vector(text: str, matrix: ZeroOneMatrix | None = None):
    """A vector argument: JSON list of scalars, or the keyword `canonical`
    for (1/PFE, ..., 1/PFE) of the given matrix."""
    text = text.strip()
    if text == "canonical":
        if matrix is None:
            raise UsageError("`canonical` needs a matrix in the same command")
        return perron.canonical_point(matrix).entries
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


# the width of a printed scalar's enclosure, unless a command prints at
# --precision
PRINT_WIDTH = Q(1, 10**15)


def render_scalar(s: scalars.Scalar, precision=PRINT_WIDTH) -> dict:
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


@dataclass(frozen=True)
class LabelValue:
    """The value of a type label, printed as a scalar: a guessed label may
    be an exact scalar, but only a proved one is printed as exact."""
    label: classify.TypeLabel


def render(value, precision=PRINT_WIDTH) -> tuple:
    """(JSON, mode) of a reported value: dicts and lists entry by entry, a
    type label spread into its dict, and the mode the weakest of the parts.

    A scalar has the mode of its shape; an interval of nonzero width and a
    nonzero bound (a Fraction: a residual, gap or width) are certified; a
    parameter vector prints its certificate, its mode.  A BetaSolution
    prints its beta enclosure and adds no mode: a check on an exact solve
    takes its exact gauge, not the enclosure, so the command that prints
    one lists the solve's parameters in `Report.rests_on`.  Other JSON
    passes through as exact.
    """
    if isinstance(value, dict):
        out, modes = {}, []
        for key, item in value.items():
            text, mode = render(item, precision)
            if isinstance(item, classify.TypeLabel):
                out.update(text)
            else:
                out[key] = text
            modes.append(mode)
        return out, scalars.weakest(*modes)
    if isinstance(value, (list, tuple)):
        pairs = [render(item, precision) for item in value]
        return [text for text, _ in pairs], scalars.weakest(*(m for _, m in pairs))
    if isinstance(value, classify.TypeLabel):
        return render_lambda(value), value.mode
    if isinstance(value, LabelValue):
        label = value.label
        return (dict(render_scalar(label.lam, precision), exact=label.mode == scalars.EXACT),
                label.mode)
    if isinstance(value, scalars.Scalar):
        return render_scalar(value, precision), scalars.mode_of(value)
    if isinstance(value, perron.BetaSolution):
        return render_interval(value.beta), scalars.EXACT
    if isinstance(value, perron.ParamVector):
        return value.certificate, value.certificate
    if isinstance(value, Interval):
        return render_interval(value), scalars.CERTIFIED if value.width else scalars.EXACT
    if isinstance(value, Fraction):
        return fmt15(float(value)), scalars.CERTIFIED if value else scalars.EXACT
    return value, scalars.EXACT


RESIDUAL_WARNING = "residual is a certified enclosure bound, not a float estimate"
# for an envelope whose mode comes from what its result rests on, not from
# the printed values, whose weakest mode is `shown`
RESTS_ON_WARNING = ("mode is {mode} because the result rests on parameters whose "
                    "certificate is {mode}; the printed values alone are {shown}")


@dataclass(frozen=True)
class Report:
    """What a command reports, as raw values for `render`: the `result`, the
    `residual` bound of a verdict, and `rests_on`, the values the result
    depends on without printing them (the parameters of a state or of a
    solve).  Scalars of the result render at `precision`.  When what it
    rests on is weaker than every printed value, the envelope's mode comes
    from there, and a warning says so."""
    result: dict
    code: int = 0
    residual: Fraction | None = None
    warnings: tuple = ()
    rests_on: tuple = ()
    precision: Fraction = PRINT_WIDTH


# ---------------------------------------------------------------------------
# command handlers: each returns a Report


def _cmd_classify(args, config: RunConfig):
    label = classify.detect_lambda(parse_vector_or_power_form(args.vector))
    return Report({"label": label}, warnings=label.warnings)


def _cmd_tensor_type(args, config: RunConfig):
    a = parse_vector_or_power_form(args.a)
    b = parse_vector_or_power_form(args.b)
    label = classify.tensor_type(a, b)
    return Report({"label": label}, warnings=label.warnings)


def _cmd_power_type(args, config: RunConfig):
    if (args.p is None) != (args.q is None):
        raise UsageError("--p and --q must be given together")
    a = parse_vector_or_power_form(args.a)
    label = classify.power_type_direct(a, args.k, config.dimension_cap)
    result = {"label": label}
    if args.p is not None:
        result["exponent_rule"] = classify.power_type_ck2(args.p, args.q, args.k)
    return Report(result, warnings=label.warnings)


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
    return Report({"label": LabelValue(label)}, warnings=label.warnings)


def _cmd_iii1_family(args, config: RunConfig):
    entries = classify.iii1_family(args.n, config.dimension_cap)
    label = classify.detect_lambda([Rat(e) for e in entries])
    return Report({"vector": [str(e) for e in entries], "label": label})


def _cmd_pf(args, config: RunConfig):
    data = perron.pf_data(parse_matrix(args.matrix), precision=config.precision)
    return Report({"eigenvalue": data.eigenvalue, "eigenvector": data.eigenvector,
                   "iterations": data.iterations})


def _cmd_solve_beta(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    omega = parse_omega(args.omega)
    solution = perron.solve_beta(matrix, omega, precision=config.precision)
    result = {"beta": solution.beta, "parameters": solution.param.entries,
              "certificate": solution.param}
    if solution.base is not None:
        result["base"] = solution.base
        result["exponents"] = solution.exponents
        result["scale"] = str(solution.scale)
    return Report(result)


def _cmd_membership(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    vec = parse_vector(args.vector, matrix)
    try:
        param = perron.in_lambda(matrix, vec, tolerance=config.tolerance)
    except MembershipRejected as exc:
        result = {"member": False, "reason": str(exc)}
        if exc.enclosure is not None:
            result["spectral_radius"] = exc.enclosure
        return Report(result, code=1)
    return Report({"member": True, "certificate": param})


def _state_spec_from_args(matrix_text: str, vector_text: str, config: RunConfig):
    matrix = parse_matrix(matrix_text)
    vec = parse_vector(vector_text, matrix)
    param = perron.in_lambda(matrix, vec, tolerance=config.tolerance)
    return states.state_spec(param, precision=config.precision)


def _cmd_state_eval(args, config: RunConfig):
    spec = _state_spec_from_args(args.matrix, args.vector, config)
    nf = ckwords.normalize(spec.matrix, ckwords.parse_word(args.word))
    value = states.eval_state(spec, nf)
    result = {
        "value": value,
        # the width of the printed enclosure, exact whatever the value's mode
        "enclosure_width": fmt15(float(scalars.refine(value, config.precision).width)),
        "normal_form": ckwords.normal_form_to_json(nf),
    }
    return Report(result, rests_on=(spec.param,), precision=config.precision)


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
    result = {"ok": check.ok, "lhs": check.lhs, "rhs": check.rhs, "beta": solution}
    return Report(result, code=0 if check.ok else 1, residual=check.residual,
                  rests_on=(solution.param,))


def _cmd_tensor_state(args, config: RunConfig):
    spec_a = _state_spec_from_args(args.matrix_a, args.vector_a, config)
    spec_b = _state_spec_from_args(args.matrix_b, args.vector_b, config)
    composite = kronecker_matrix(spec_a.matrix, spec_b.matrix,
                                 config.dimension_cap)
    nf = ckwords.normalize(composite, ckwords.parse_word(args.word))
    value = tensorops.tensor_state_eval(spec_a, spec_b, nf)
    return Report({"value": value, "composite_dimension": composite.n},
                  rests_on=(spec_a.param, spec_b.param), precision=config.precision)


def _cmd_verify_homomorphism(args, config: RunConfig):
    spec_a = _state_spec_from_args(args.matrix_a, args.vector_a, config)
    spec_b = _state_spec_from_args(args.matrix_b, args.vector_b, config)
    report = tensorops.verify_tensor_identity(
        spec_a, spec_b, max_len=config.max_word_len,
        tolerance=config.tolerance)
    result = {
        "passed": report.passed,
        "max_residual": report.max_residual,
        "diagonal_monomials": report.diagonal_count,
        "max_word_len": report.max_len,
    }
    return Report(result, code=0 if report.passed else 1,
                  residual=report.max_residual, rests_on=(spec_a.param, spec_b.param))


def _cmd_coassoc(args, config: RunConfig):
    with _malformed("--dims", args.dims):
        dims = [int(d) for d in args.dims.split(",")]
    if len(dims) != 3:
        raise UsageError("--dims needs three comma-separated integers")
    ok = tensorops.check_coassociativity(*dims)
    return Report({"passed": ok, "dims": dims}, code=0 if ok else 1)


def _cmd_normalize(args, config: RunConfig):
    matrix = parse_matrix(args.matrix)
    word = ckwords.parse_word(args.word)
    nf = ckwords.normalize(matrix, word, strategy=args.strategy)
    return Report({"normal_form": ckwords.normal_form_to_json(nf),
                   "is_zero": nf.is_zero})


# ---------------------------------------------------------------------------
# reproduction report


def check_row(check_id: str, passed: bool, detail: dict) -> dict:
    """One `reproduce-paper` row, as raw values for `render`."""
    return {"id": check_id, "passed": bool(passed), **detail}


def render_check(*row) -> dict:
    return render(check_row(*row))[0]


def _cmd_reproduce(args, config: RunConfig):
    checks = [check_row(check_id, *check(config.precision, config.tolerance))
              for check_id, check in paper.CHECKS]
    passed = all(c["passed"] for c in checks)
    result = {
        "passed": passed,
        "total": len(checks),
        "failed": [c["id"] for c in checks if not c["passed"]],
        "checks": checks,
    }
    return Report(result, code=0 if passed else 1)


# ---------------------------------------------------------------------------
# driver


# name: (handler, help, required string flags); build_parser adds the rest
_COMMANDS = {
    "classify": (_cmd_classify, "type label of a parameter vector", "vector"),
    "tensor-type": (_cmd_tensor_type, "type label of a Kronecker product", "a b"),
    "power-type": (_cmd_power_type, "type label of a Kronecker power", "a"),
    "afd-rule": (_cmd_afd_rule, "tensor rule for two type labels", "lam mu"),
    "iii1-family": (_cmd_iii1_family, "rational vectors with label 1", ""),
    "pf": (_cmd_pf, "certified spectral data of a 0-1 matrix", "matrix"),
    "solve-beta": (_cmd_solve_beta, "inverse temperature for frequencies",
                   "matrix omega"),
    "membership": (_cmd_membership, "is the vector on the KMS manifold",
                   "matrix vector"),
    "state-eval": (_cmd_state_eval, "evaluate a state on a word",
                   "matrix vector word"),
    "kms-check": (_cmd_kms_check, "check the KMS identity on words",
                  "matrix omega x y"),
    "tensor-state": (_cmd_tensor_state, "tensor state on a composite word",
                     "matrix-a vector-a matrix-b vector-b word"),
    "verify-homomorphism": (_cmd_verify_homomorphism,
                            "compare tensor evaluation with the product state",
                            "matrix-a vector-a matrix-b vector-b"),
    "coassoc": (_cmd_coassoc, "index-splitting coassociativity", ""),
    "normalize": (_cmd_normalize, "normal form of a word", "matrix word"),
    "reproduce-paper": (_cmd_reproduce, "run the worked-example suite", ""),
}
_HANDLERS = {name: handler for name, (handler, _, _) in _COMMANDS.items()}


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
    commands = {}
    for name, (_, help_text, flags) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, parents=[common], help=help_text)
        for flag in flags.split():
            commands[name].add_argument(f"--{flag}", required=True)
    commands["power-type"].add_argument("--k", type=int, required=True)
    commands["power-type"].add_argument("--p", type=int, default=None)
    commands["power-type"].add_argument("--q", type=int, default=None)
    commands["iii1-family"].add_argument("--n", type=int, required=True)
    commands["coassoc"].add_argument("--dims", required=True,
                                     help="three dims, e.g. 2,3,2")
    commands["normalize"].add_argument("--strategy", choices=("leftmost", "rightmost"),
                                       default="leftmost")
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
    try:
        try:
            report = _HANDLERS[args.command](args, config)
        except MembershipRejected as exc:
            report = Report({"rejected": True, "reason": str(exc)}, code=1)
        (result, residual), shown = render((report.result, report.residual),
                                           report.precision)
        basis = render(report.rests_on)[1]
    except (UsageError, CkkmsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 70  # EX_SOFTWARE in sysexits.h
    # the mode is the weakest among result, residual and what it rests on
    mode = scalars.weakest(shown, basis)
    warnings = list(report.warnings) + [RESIDUAL_WARNING] * bool(report.residual)
    if mode != shown:
        warnings.append(RESTS_ON_WARNING.format(mode=mode, shown=shown))
    doc = {
        "command": args.command,
        "inputs": _inputs_of(args),
        "result": result,
        "mode": mode,
        "residual": residual,
        "warnings": warnings,
    }
    return _emit(doc, args, report.code)


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
