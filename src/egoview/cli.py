"""Count the views that questions need, compose multi-view questions, build
view/object/text triplets and score answers by exact match.

exit codes:
  0  success
  1  usage error
  2  schema or data error, unreadable input or unwritable output
  3  unknown reference
  4  model-service failure

A failing command leaves no partial output.  Nothing is random: --seed enters
only the provenance and the config hash.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from ._util import check_stride, config_hash
from .errors import (
    DuplicateId,
    DuplicatePrediction,
    EmptyInput,
    MissingGold,
    NoViews,
    SchemaError,
    ServiceUnavailable,
    UnknownObjectId,
    UnknownScene,
)
from .records import OutputFiles, check_output, write_jsonl, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_REFERENCE = 3
EXIT_SERVICE = 4

MODEL_SERVICE_ENV = "MODEL_SERVICE_URL"

logger = logging.getLogger(__name__)


def _provenance(command: str, seed: int, stub: bool, knobs: dict) -> dict:
    """A run's provenance block.  Its config hash covers the command, seed,
    stub mode, tool version and `knobs`; paths never enter it, so identical
    runs on different machines produce identical provenance."""
    payload = {"command": command, "seed": seed, "stub": stub, "tool_version": __version__}
    return {
        "tool": "egoview",
        "version": __version__,
        "command": command,
        "seed": seed,
        "stub": stub,
        "config_hash": config_hash({**payload, **knobs}),
    }


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises _UsageError instead of exiting.  A
    command's parser may take `arguments`, a function that adds its
    arguments and sets their defaults.  It runs only when that command is
    parsed, so building the parser adds no command's arguments and imports
    no command's modules: each command imports the modules it runs when it
    runs, so eval and `egoview --help` start without numpy."""

    def __init__(self, *args, arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self.arguments is not None:
            self.arguments(self)
            self.arguments = None  # added once, however often it is parsed
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise _UsageError(message)


def _config(cls, args):
    """The config dataclass `cls` with each field read from its flag."""
    return cls(**{field.name: getattr(args, field.name) for field in fields(cls)})


def _service_client(args):
    """Build the model-service client; env var overrides the --service URL."""
    from .services import RemoteModelService, StubModelService

    if args.stub:
        return StubModelService()
    base_url = os.environ.get(MODEL_SERVICE_ENV) or args.service
    return RemoteModelService(base_url)


def _report_path(args) -> str:
    """`--report`, else `<out>.report.json`."""
    return args.report or str(args.out) + ".report.json"


def _check_outputs(args, **outputs: str) -> None:
    """Raise a usage error if an output resolves to an input file or to an
    earlier output, which writing it would replace, and an OSError if it is
    a directory or its directory is missing.  `outputs` maps each output's
    flag name to its path.  Commands call it before reading or any model
    call."""
    taken = {}
    for name in ("instructions", "questions", "gold", "pred"):
        if getattr(args, name, None):
            taken.setdefault(os.path.realpath(getattr(args, name)), f"the --{name} file")
    if getattr(args, "scenes", None):
        for path in Path(args.scenes).glob("*.json"):
            taken.setdefault(os.path.realpath(path), "a --scenes file")
    for name, path in outputs.items():
        real = os.path.realpath(path)
        if real in taken:
            raise _UsageError(f"--{name} {path} names {taken[real]}")
        taken[real] = f"the --{name} file"
        check_output(path)


def cmd_solvability(args) -> int:
    from .corpus import read_instructions
    from .scene import load_scenes_dir
    from .solvability import (
        WitnessConfig,
        format_solvability_report,
        solvability_report,
        view_requirement_stats,
    )

    _check_outputs(args, out=args.out)
    cfg = _config(WitnessConfig, args)
    knobs = {"stride": check_stride(args.stride), **asdict(cfg)}
    provenance = _provenance("solvability", args.seed, True, knobs)
    scenes = load_scenes_dir(args.scenes)
    instructions = read_instructions(args.instructions)
    reqs = view_requirement_stats(instructions, scenes, cfg, stride=args.stride)
    report = solvability_report(reqs, cfg, args.stride)
    with OutputFiles() as outputs:
        write_report(args.out, report, provenance, outputs)
    print(format_solvability_report(report))
    print(f"wrote report -> {args.out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    from .scene import load_scenes_dir
    from .solvability import WitnessConfig
    from .synthesis import (
        ANSWER_TOKEN_LIMIT,
        MAX_GENERATION_ATTEMPTS,
        PROMPT_VERSION,
        TEMPERATURE,
        read_questions,
        synthesize_dataset,
    )

    report_path = _report_path(args)
    _check_outputs(args, out=args.out, report=report_path)
    knobs = {
        "prompt_version": PROMPT_VERSION,
        "max_attempts": MAX_GENERATION_ATTEMPTS,
        "answer_token_limit": ANSWER_TOKEN_LIMIT,
        "temperature": TEMPERATURE,
        **asdict(WitnessConfig()),
    }
    provenance = _provenance("synthesize", args.seed, args.stub, knobs)
    scenes = load_scenes_dir(args.scenes)
    questions = read_questions(args.questions)
    client = _service_client(args)
    records, report = synthesize_dataset(questions, client, scenes)
    provenance["prompt_version"] = PROMPT_VERSION
    with OutputFiles() as outputs:
        write_jsonl(args.out, records, provenance=provenance, outputs=outputs)
        write_report(report_path, report.to_dict(), provenance, outputs)
    print(
        f"synthesized {report.composed} of {report.pairs_considered} eligible pairs "
        f"-> {args.out}"
    )
    if not records:
        print("no eligible pairs produced records; see report for reasons")
    return EXIT_OK


def cmd_build_corpus(args) -> int:
    from .corpus import (
        CaptionBuildConfig,
        build_caption_triplets,
        extend_dataset_triplets,
        read_instructions,
    )
    from .scene import load_scenes_dir

    report_path = _report_path(args)
    if args.mode == "extend":
        if not args.instructions:
            raise _UsageError("--mode extend requires --instructions")
        # Extend reads none of these, so only their defaults may enter its hash.
        for name in ("stride", "num_captions", "threshold"):
            if getattr(args, name) != getattr(CaptionBuildConfig, name):
                raise _UsageError(f"--{name.replace('_', '-')} is read only by --mode captions")
    _check_outputs(args, out=args.out, report=report_path)
    cfg = _config(CaptionBuildConfig, args)  # a bad setting fails before any scene is read
    scenes = load_scenes_dir(args.scenes)
    knobs = {"mode": args.mode, **asdict(cfg)}
    provenance = _provenance("build-corpus", args.seed, args.stub, knobs)
    chash = provenance["config_hash"]
    client = _service_client(args)

    if args.mode == "captions":
        records = build_caption_triplets(scenes, client, cfg, config_hash=chash)
    else:
        instructions = read_instructions(args.instructions)
        records = extend_dataset_triplets(instructions, scenes, client, cfg, config_hash=chash)

    sources: dict[str, int] = {}
    for record in records:
        sources[record.source] = sources.get(record.source, 0) + 1
    summary = {
        "record": "corpus_report",
        "triplets": len(records),
        "per_source": {k: sources[k] for k in sorted(sources)},
    }
    with OutputFiles() as outputs:
        write_jsonl(args.out, records, provenance=provenance, outputs=outputs)
        write_report(report_path, summary, provenance, outputs)
    print(f"built {len(records)} triplets -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluate import (
        ARTICLES_POLICY,
        NORMALIZATION_VERSION,
        em_score,
        read_gold,
        read_predictions,
    )

    _check_outputs(args, out=args.out)
    gold = read_gold(args.gold)
    predictions = read_predictions(args.pred)
    report = em_score(predictions, gold)
    knobs = {"normalization": NORMALIZATION_VERSION, "articles": ARTICLES_POLICY}
    provenance = _provenance("eval", args.seed, True, knobs)
    with OutputFiles() as outputs:
        write_report(args.out, report.to_dict(), provenance, outputs)
    print(f"overall EM: {report.overall_em:.1f} over {report.total} questions")
    for bucket, value in report.per_bucket_em.items():
        print(f"  views={bucket}: EM {value:.1f} ({report.bucket_counts[bucket]})")
    print(f"wrote report -> {args.out}")
    return EXIT_OK


def _add_service_args(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--stub", action="store_true", help="use deterministic in-process stubs")
    group.add_argument("--service", metavar="URL", help="model service base URL")


def _solvability_arguments(sub) -> None:
    from .solvability import WitnessConfig

    sub.add_argument("--scenes", required=True, help="directory of scene JSON files")
    sub.add_argument("--instructions", required=True, help="instruction JSONL file")
    sub.add_argument("--out", required=True, help="report JSON output path")
    sub.add_argument("--stride", type=int, default=1, help="candidate view stride (default 1)")
    sub.add_argument("--iosa-threshold", type=float)
    sub.add_argument("--min-area-ratio", type=float)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_solvability, **asdict(WitnessConfig()))


def _synthesize_arguments(sub) -> None:
    sub.add_argument("--scenes", required=True)
    sub.add_argument("--questions", required=True, help="question JSONL file")
    sub.add_argument("--out", required=True, help="composed-question JSONL output path")
    sub.add_argument("--report", help="report JSON path (default: <out>.report.json)")
    sub.add_argument("--seed", type=int, default=0)
    _add_service_args(sub)
    sub.set_defaults(func=cmd_synthesize)


def _build_corpus_arguments(sub) -> None:
    from .corpus import CaptionBuildConfig

    sub.add_argument("--scenes", required=True)
    sub.add_argument("--mode", required=True, choices=["captions", "extend"])
    sub.add_argument("--instructions", help="instruction JSONL (required for extend mode)")
    sub.add_argument("--out", required=True, help="triplet JSONL output path")
    sub.add_argument("--report", help="summary JSON path (default: <out>.report.json)")
    sub.add_argument("--stride", type=int, help="view sampling stride (default %(default)s)")
    sub.add_argument("--num-captions", type=int)
    sub.add_argument("--threshold", type=float, help="caption keep threshold")
    sub.add_argument("--tau", type=float, help="visibility threshold")
    sub.add_argument("--seed", type=int, default=0)
    _add_service_args(sub)
    sub.set_defaults(func=cmd_build_corpus, **asdict(CaptionBuildConfig()))


def _eval_arguments(sub) -> None:
    sub.add_argument("--gold", required=True, help="gold answer JSONL")
    sub.add_argument("--pred", required=True, help="prediction JSONL")
    sub.add_argument("--out", required=True, help="report JSON output path")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_eval)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egoview",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"egoview {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser(
        "solvability",
        help="view-requirement analysis over instructions",
        arguments=_solvability_arguments,
    )
    commands.add_parser(
        "synthesize",
        help="compose multi-view questions from pairs",
        arguments=_synthesize_arguments,
    )
    commands.add_parser(
        "build-corpus",
        help="build view/object/text triplets",
        arguments=_build_corpus_arguments,
    )
    commands.add_parser(
        "eval", help="exact-match evaluation of predictions", arguments=_eval_arguments
    )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, DuplicateId, EmptyInput, NoViews, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (UnknownScene, UnknownObjectId, MissingGold, DuplicatePrediction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except ServiceUnavailable as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except OSError as exc:  # unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
